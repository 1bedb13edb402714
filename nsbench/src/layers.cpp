#include "layers.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <thread>

#include "agent/predictor.hpp"
#include "common/clock.hpp"
#include "linalg/blas.hpp"
#include "linalg/iterative.hpp"
#include "linalg/lu.hpp"
#include "proto/messages.hpp"
#include "serial/crc32.hpp"
#include "serial/frame.hpp"
#include "deploy.hpp"

namespace nsbench {

using ns::dsl::DataObject;
using ns::proto::MessageType;
using ns::serial::Bytes;

namespace {

volatile double g_sink = 0.0;

/// Seconds per call of `fn`, repeating it for at least `min_s` seconds.
template <typename Fn>
double seconds_per_rep(Fn&& fn, double min_s = 0.01) {
  const ns::Stopwatch watch;
  std::size_t reps = 0;
  do {
    fn();
    ++reps;
  } while (watch.elapsed() < min_s);
  return watch.elapsed() / static_cast<double>(reps);
}

template <typename Msg>
Bytes encode(const Msg& msg) {
  ns::serial::Encoder enc;
  msg.encode(enc);
  return enc.take();
}

Bytes encode_args(const std::vector<DataObject>& args) {
  ns::serial::Encoder enc;
  ns::dsl::encode_args(enc, args);
  return enc.take();
}

/// Sender frames the payload, receiver checks it.
void frame_and_check(std::uint16_t type, const Bytes& payload) {
  const Bytes frame = ns::serial::build_frame(type, payload);
  const auto header = ns::serial::decode_header(frame.data());
  g_sink = g_sink + static_cast<double>(ns::serial::check_payload(header.value(), payload).ok());
}

std::uint16_t type_of(MessageType t) { return static_cast<std::uint16_t>(t); }

ns::agent::ServerRecord server_record(const std::string& name, double speed) {
  ns::agent::ServerRecord record;
  const ns::agent::RegistryConfig defaults;
  record.name = name;
  record.mflops = kRatingMflops * speed;
  record.latency_s = defaults.default_latency_s;
  record.bandwidth_Bps = defaults.default_bandwidth_Bps;
  record.free_slots = 1.0;
  return record;
}

/// Per-job replay costs, later weighted by how often the round issues the job.
struct JobCost {
  double crc_s = 0.0, crc_bytes = 0.0, crc_bytes_per_call = 0.0, frame_s = 0.0;
  double enc_bytes = 0.0, enc_s = 0.0, dec_bytes = 0.0, dec_s = 0.0, in_attempt_dsl_s = 0.0;
  double request_rt_s = 0.0, predict_s = 0.0;
};

JobCost replay_job(const Job& job, const std::map<std::string, ns::dsl::ProblemSpec>& specs) {
  JobCost c;
  const std::vector<DataObject> outputs = local_reply(job);
  const Bytes args_bytes = encode_args(job.args);
  const Bytes out_bytes = encode_args(outputs);
  const auto decode = [](const Bytes& bytes) {
    ns::serial::Decoder dec(bytes);
    g_sink = g_sink + static_cast<double>(ns::dsl::decode_args(dec).value().size());
  };
  const double enc_args = seconds_per_rep([&] { g_sink = g_sink + encode_args(job.args).size(); });
  const double enc_out = seconds_per_rep([&] { g_sink = g_sink + encode_args(outputs).size(); });
  const double dec_args = seconds_per_rep([&] { decode(args_bytes); });
  const double dec_out = seconds_per_rep([&] { decode(out_bytes); });
  c.enc_bytes = static_cast<double>(args_bytes.size() + out_bytes.size());
  c.enc_s = enc_args + enc_out;
  c.dec_bytes = c.enc_bytes;
  c.dec_s = dec_args + dec_out;
  c.in_attempt_dsl_s = enc_args + dec_args + enc_out;

  ns::proto::SolveRequest request;
  request.request_id = 1;
  request.problem = job.problem;
  request.args = job.args;
  request.trace_id = 1;
  request.client_id = 1;
  const Bytes request_payload = encode(request);
  c.request_rt_s = seconds_per_rep([&] {
    const Bytes payload = encode(request);
    ns::serial::Decoder dec(payload);
    g_sink = g_sink + static_cast<double>(ns::proto::SolveRequest::decode(dec).ok());
  });

  ns::proto::SolveResult result;
  result.request_id = 1;
  result.outputs = outputs;
  const Bytes result_payload = encode(result);
  c.frame_s = seconds_per_rep([&] {
    frame_and_check(type_of(MessageType::kSolveRequest), request_payload);
    frame_and_check(type_of(MessageType::kSolveResult), result_payload);
  });
  c.crc_bytes = static_cast<double>(request_payload.size());
  c.crc_s = seconds_per_rep(
      [&] { g_sink = g_sink + ns::serial::crc32(request_payload.data(), request_payload.size()); });

  // Every frame one call exchanges is CRC'd by its sender and its receiver;
  // the CRC also covers 6 bytes of type and length.
  ns::proto::Query query;
  query.problem = job.problem;
  query.input_bytes = job.arg_bytes;
  query.output_bytes = job.arg_bytes;
  query.size_hint = job.size_hint;
  query.trace_id = 1;
  ns::proto::ServerList list;
  for (const char* name : {"A", "B"}) {
    ns::proto::ServerCandidate cand;
    cand.server_id = 1;
    cand.server_name = name;
    cand.endpoint = ns::net::Endpoint{"127.0.0.1", 40000};
    list.candidates.push_back(cand);
  }
  const ns::proto::MetricsReport report;
  for (const std::size_t size : {request_payload.size(), result_payload.size(), encode(query).size(),
                                 encode(list).size(), encode(report).size()}) {
    c.crc_bytes_per_call += 2.0 * static_cast<double>(size + 6);
  }

  const auto spec = specs.find(job.problem);
  if (spec != specs.end()) {
    const auto a = server_record("A", 1.0);
    const auto b = server_record("B", 0.5);
    c.predict_s = seconds_per_rep([&] {
      const auto profile =
          ns::agent::profile_request(spec->second, job.size_hint, job.arg_bytes, job.arg_bytes);
      g_sink = g_sink + ns::agent::predict_seconds(a, profile) + ns::agent::predict_seconds(b, profile);
    });
  }
  return c;
}

}  // namespace

LayerReplay replay_layers(const Workload& w, const std::vector<Job>& fallback,
                          const std::map<std::string, ns::dsl::ProblemSpec>& specs) {
  const std::vector<std::size_t>& round = w.rounds.front();
  std::map<std::size_t, JobCost> costs;
  for (const std::size_t j : round) {
    if (costs.find(j) == costs.end()) costs[j] = replay_job(w.jobs[j], specs);
  }
  JobCost sum;
  for (const std::size_t j : round) {
    const JobCost& c = costs[j];
    sum.crc_s += c.crc_s;
    sum.crc_bytes += c.crc_bytes;
    sum.crc_bytes_per_call += c.crc_bytes_per_call;
    sum.frame_s += c.frame_s;
    sum.enc_bytes += c.enc_bytes;
    sum.enc_s += c.enc_s;
    sum.dec_bytes += c.dec_bytes;
    sum.dec_s += c.dec_s;
    sum.in_attempt_dsl_s += c.in_attempt_dsl_s;
    sum.request_rt_s += c.request_rt_s;
    sum.predict_s += c.predict_s;
  }
  const double calls = static_cast<double>(round.size());
  LayerReplay r;
  r.crc32_MBps = sum.crc_bytes / sum.crc_s / 1e6;
  r.crc_bytes_per_call = sum.crc_bytes_per_call / calls;
  r.frame_us_per_call = sum.frame_s / calls * 1e6;
  r.encode_args_MBps = sum.enc_bytes / sum.enc_s / 1e6;
  r.decode_args_MBps = sum.dec_bytes / sum.dec_s / 1e6;
  r.in_attempt_us_per_call = sum.in_attempt_dsl_s / calls * 1e6;
  r.solve_request_roundtrip_us = sum.request_rt_s / calls * 1e6;
  r.predict_us = sum.predict_s / calls * 1e6;

  // Kernels: the workload's own inputs where it has them, else `fallback`.
  const auto jobs_of = [&](Kind kind) {
    std::vector<const Job*> own;
    for (const std::size_t j : round) {
      if (w.jobs[j].kind == kind &&
          std::find(own.begin(), own.end(), &w.jobs[j]) == own.end()) {
        own.push_back(&w.jobs[j]);
      }
    }
    if (own.empty()) {
      for (const Job& job : fallback) {
        if (job.kind == kind) own.push_back(&job);
      }
    }
    return own;
  };
  double flops = 0.0, seconds = 0.0;
  for (const Job* job : jobs_of(Kind::kDgesv)) {
    const auto& a = job->args[0].as_matrix();
    const auto& b = job->args[1].as_vector();
    seconds += seconds_per_rep([&] { g_sink = g_sink + ns::linalg::dgesv(a, b).value()[0]; });
    const double n = static_cast<double>(a.rows());
    flops += 2.0 / 3.0 * n * n * n;
  }
  r.dgesv_gflops = flops / seconds / 1e9;

  const auto cg_jobs = jobs_of(Kind::kCg);
  double cg_seconds = 0.0, iterations = 0.0;
  for (const Job* job : cg_jobs) {
    std::size_t its = 0;
    cg_seconds += seconds_per_rep([&] {
      its = ns::linalg::conjugate_gradient(job->args[0].as_sparse(), job->args[1].as_vector())
                .value()
                .iterations;
    });
    iterations += static_cast<double>(its);
  }
  r.cg_ms = cg_seconds / static_cast<double>(cg_jobs.size()) * 1e3;
  r.cg_iterations = iterations / static_cast<double>(cg_jobs.size());

  double bytes = 0.0;
  seconds = 0.0;
  for (const Job* job : jobs_of(Kind::kDdot)) {
    const auto& x = job->args[0].as_vector();
    const auto& y = job->args[1].as_vector();
    seconds += seconds_per_rep([&] { g_sink = g_sink + ns::linalg::dot(x, y); });
    bytes += 16.0 * static_cast<double>(x.size());
  }
  r.ddot_GBps = bytes / seconds / 1e9;
  return r;
}

double tcp_rtt_us() {
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  ::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  ::listen(listener, 1);
  ::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len);
  const int one = 1;

  std::thread echo([listener, one] {
    const int fd = ::accept(listener, nullptr, nullptr);
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    char byte = 0;
    while (::recv(fd, &byte, 1, 0) == 1) {
      if (::send(fd, &byte, 1, 0) != 1) break;
    }
    ::close(fd);
  });

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  std::vector<double> rtts;
  char byte = 1;
  const ns::Stopwatch total;
  for (int i = 0; i < 20000 && total.elapsed() < 0.3; ++i) {
    const ns::Stopwatch watch;
    if (::send(fd, &byte, 1, 0) != 1 || ::recv(fd, &byte, 1, 0) != 1) break;
    if (i >= 200) rtts.push_back(watch.elapsed());  // the first round trips warm up
  }
  ::close(fd);
  echo.join();
  ::close(listener);
  if (rtts.empty()) return 0.0;
  std::nth_element(rtts.begin(), rtts.begin() + rtts.size() / 2, rtts.end());
  return rtts[rtts.size() / 2] * 1e6;
}

double memcpy_GBps() {
  constexpr std::size_t kBytes = 64u << 20;
  std::vector<char> src(kBytes, 1), dst(kBytes, 0);
  std::vector<double> seconds;
  const ns::Stopwatch total;
  while (seconds.size() < 3 || total.elapsed() < 0.2) {
    const ns::Stopwatch watch;
    std::memcpy(dst.data(), src.data(), kBytes);
    seconds.push_back(watch.elapsed());
    src[seconds.size() % kBytes] = dst[kBytes / 2];
  }
  std::nth_element(seconds.begin(), seconds.begin() + seconds.size() / 2, seconds.end());
  return static_cast<double>(kBytes) / seconds[seconds.size() / 2] / 1e9;
}

}  // namespace nsbench
