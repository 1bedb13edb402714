// Per-layer replays and host floors for the traced run.
//
// A replay times calls into one module's public functions on the
// workload's own inputs, outside any running daemon: dsl encode/decode,
// serial CRC and framing, proto SolveRequest encode/decode, the agent's
// predictor, and the linalg kernels. Costs are per call of the workload's
// round (caller 0's round, repeats included), so they line up with the
// per-call span times of the traced run.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "dsl/problem.hpp"
#include "workloads.hpp"

namespace nsbench {

struct LayerReplay {
  // serial
  double crc32_MBps = 0.0;           // crc32 over each request payload
  double crc_bytes_per_call = 0.0;   // computed: bytes CRC'd per call, both ends
  double frame_us_per_call = 0.0;    // build_frame + check_payload, request and reply
  // dsl
  double encode_args_MBps = 0.0;
  double decode_args_MBps = 0.0;
  /// encode(args) + decode(args) + encode(outputs): the dsl work inside the
  /// client's attempt span (the client decodes the reply after it).
  double in_attempt_us_per_call = 0.0;
  // proto
  double solve_request_roundtrip_us = 0.0;
  // agent
  double predict_us = 0.0;           // profile + predict_seconds for A and B
  // linalg
  double dgesv_gflops = 0.0;
  double cg_ms = 0.0;
  double cg_iterations = 0.0;
  double ddot_GBps = 0.0;
};

/// Replay one round of `w`. Kernels a workload lacks (dgesv or cg on the
/// transfer workloads, ddot on compute_mix) run on `fallback` jobs instead.
/// `specs` maps problem names to their catalogue entries (for the predictor).
LayerReplay replay_layers(const Workload& w, const std::vector<Job>& fallback,
                          const std::map<std::string, ns::dsl::ProblemSpec>& specs);

/// Median round trip of a 1-byte ping-pong over raw loopback TCP, in us.
double tcp_rtt_us();

/// memcpy bandwidth over a 64 MiB buffer, in GB/s (bytes copied per second).
double memcpy_GBps();

}  // namespace nsbench
