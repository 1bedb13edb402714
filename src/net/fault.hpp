// Deterministic network fault injection.
//
// Real deployments fail in ways an error reply never exercises: connections
// refused while a server reboots, streams reset mid-frame, writes that stall
// until the peer times out, bytes damaged in flight, and partitions that
// silently eat agent<->server control traffic. This layer lets tests and
// benches script those failures over the real loopback sockets the system
// already uses, without faking the sockets themselves.
//
// A FaultPlan is armed per *link*, keyed by the remote endpoint, on the
// process-global FaultInjector. The transport consults the injector at two
// choke points:
//
//   ConnectionPool::channel() -- kConnectRefused / kPartition fail the dial,
//                                even on a warm channel (TcpConnection::
//                                connect() checks the same way)
//   net::send_message()       -- kReset / kStall / kCorrupt / kPartition act
//                                on one outgoing frame
//
// Fault decisions draw from a per-link seeded Rng, so a single-threaded
// caller replays the identical fault sequence run-to-run; concurrent callers
// still see the same marginal probabilities (draws are serialized under the
// injector lock) but may interleave differently.
//
// Injection sites are chosen so every fault is *observable only through the
// public failure surface*: a reset arrives as kConnectionClosed, a stall as
// the peer's kTimeout, a corruption as serial/crc32's kCorruptFrame — never
// as a hang or a crash.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "net/endpoint.hpp"

namespace ns::net {

enum class FaultMode {
  kConnectRefused,  // dial fails immediately (server rebinding / port closed)
  kReset,           // stream closes after a partial frame (peer sees RST-like EOF)
  kStall,           // partial frame then silence: the reader's timeout fires
  kCorrupt,         // frame bytes flipped in flight (CRC must catch)
  kPartition,       // link dead both ways: dials and in-flight sends fail
};

std::string_view fault_mode_name(FaultMode mode) noexcept;

struct FaultRule {
  FaultMode mode = FaultMode::kReset;
  /// Per-operation trigger probability (independent Bernoulli draws).
  double probability = 1.0;
  /// Stop firing after this many triggers (-1 = unbounded).
  int max_triggers = -1;
  /// Restrict the rule to these frame types (proto::MessageType values);
  /// empty = all traffic. Lets a partition cut only the agent<->server
  /// control plane (RegisterServer / WorkloadReport / Ping) while client
  /// queries keep flowing. Type-scoped rules act on frames only, never on
  /// the dial itself (the connect has no frame type yet).
  std::vector<std::uint16_t> only_types;
};

/// A seeded schedule of faults for one link. Rules are evaluated in order
/// per operation; the first that triggers wins.
struct FaultPlan {
  std::uint64_t seed = 0xfa017;
  std::vector<FaultRule> rules;
  /// Byte flips applied per corrupted frame.
  int corrupt_flips = 3;

  static FaultPlan single(FaultMode mode, double probability,
                          std::uint64_t seed = 0xfa017) {
    FaultPlan plan;
    plan.seed = seed;
    plan.rules.push_back(FaultRule{mode, probability, -1, {}});
    return plan;
  }
};

/// Process-global registry of armed fault plans. Cheap when disarmed: the
/// transport checks one relaxed atomic before taking any lock.
class FaultInjector {
 public:
  static FaultInjector& instance();

  /// Arm (or replace) the plan for traffic toward `peer`.
  void arm(const Endpoint& peer, FaultPlan plan);
  void disarm(const Endpoint& peer);
  void disarm_all();

  /// True if any link has a plan armed (fast path for the transport).
  bool armed() const noexcept {
    return armed_links_.load(std::memory_order_relaxed) > 0;
  }

  /// Total faults triggered since the last disarm_all (for test assertions).
  std::uint64_t triggered_count() const noexcept { return triggered_.load(); }

  // ---- transport hooks ----

  /// Called by ConnectionPool::channel and TcpConnection::connect. Non-OK
  /// aborts the dial.
  Status on_connect(const Endpoint& peer);

  /// Called by send_message with the framed bytes about to be written.
  /// `link` is the endpoint the plan was armed on (the transport tries the
  /// connection's peer endpoint, then its local endpoint, so one plan covers
  /// both directions of a server's link). Returns the fault to apply to this
  /// frame, if any; kCorrupt additionally flips `corrupt_flips` bytes in the
  /// CRC-protected region of `frame`.
  std::optional<FaultMode> on_send(const Endpoint& link, std::uint16_t type,
                                   std::uint8_t* frame, std::size_t size);

 private:
  struct LinkState {
    FaultPlan plan;
    Rng rng;
    std::vector<int> fired;  // triggers consumed per rule
  };

  /// First rule that triggers for one frame of `type` on `link` (lock held).
  std::optional<FaultMode> roll_locked(LinkState& link, std::uint16_t type);

  mutable std::mutex mu_;
  std::map<std::string, LinkState> links_;  // keyed by Endpoint::to_string()
  std::atomic<int> armed_links_{0};
  std::atomic<std::uint64_t> triggered_{0};
};

}  // namespace ns::net
