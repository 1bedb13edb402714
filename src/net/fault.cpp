#include "net/fault.hpp"

#include <algorithm>

#include "serial/frame.hpp"

namespace ns::net {

std::string_view fault_mode_name(FaultMode mode) noexcept {
  switch (mode) {
    case FaultMode::kConnectRefused: return "connect_refused";
    case FaultMode::kReset: return "reset";
    case FaultMode::kStall: return "stall";
    case FaultMode::kCorrupt: return "corrupt";
    case FaultMode::kPartition: return "partition";
  }
  return "unknown";
}

FaultInjector& FaultInjector::instance() {
  static FaultInjector injector;
  return injector;
}

void FaultInjector::arm(const Endpoint& peer, FaultPlan plan) {
  std::lock_guard<std::mutex> lock(mu_);
  LinkState state;
  state.rng.reseed(plan.seed);
  state.fired.assign(plan.rules.size(), 0);
  state.plan = std::move(plan);
  const auto [it, inserted] = links_.insert_or_assign(peer.to_string(), std::move(state));
  (void)it;
  if (inserted) armed_links_.fetch_add(1, std::memory_order_relaxed);
}

void FaultInjector::disarm(const Endpoint& peer) {
  std::lock_guard<std::mutex> lock(mu_);
  if (links_.erase(peer.to_string()) > 0) {
    armed_links_.fetch_sub(1, std::memory_order_relaxed);
  }
}

void FaultInjector::disarm_all() {
  std::lock_guard<std::mutex> lock(mu_);
  links_.clear();
  armed_links_.store(0, std::memory_order_relaxed);
  triggered_.store(0);
}

std::optional<FaultMode> FaultInjector::roll_locked(LinkState& link, std::uint16_t type) {
  for (std::size_t i = 0; i < link.plan.rules.size(); ++i) {
    const FaultRule& rule = link.plan.rules[i];
    if (!rule.only_types.empty() &&
        std::find(rule.only_types.begin(), rule.only_types.end(), type) ==
            rule.only_types.end()) {
      continue;
    }
    if (rule.max_triggers >= 0 && link.fired[i] >= rule.max_triggers) continue;
    if (!link.rng.bernoulli(rule.probability)) continue;
    link.fired[i] += 1;
    triggered_.fetch_add(1);
    return rule.mode;
  }
  return std::nullopt;
}

Status FaultInjector::on_connect(const Endpoint& peer) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = links_.find(peer.to_string());
  if (it == links_.end()) return ok_status();
  // Partitions always block the dial (the link is down, not flaky); a
  // refused-connect rule rolls its own dice per dial. Type-scoped rules
  // never act here — there is no frame type at dial time.
  for (std::size_t i = 0; i < it->second.plan.rules.size(); ++i) {
    const FaultRule& rule = it->second.plan.rules[i];
    if (!rule.only_types.empty()) continue;
    if (rule.mode == FaultMode::kPartition) {
      triggered_.fetch_add(1);
      return make_error(ErrorCode::kConnectFailed,
                        "injected partition toward " + peer.to_string());
    }
    if (rule.mode != FaultMode::kConnectRefused) continue;
    if (rule.max_triggers >= 0 && it->second.fired[i] >= rule.max_triggers) continue;
    if (!it->second.rng.bernoulli(rule.probability)) continue;
    it->second.fired[i] += 1;
    triggered_.fetch_add(1);
    return make_error(ErrorCode::kConnectFailed,
                      "injected connection refused by " + peer.to_string());
  }
  return ok_status();
}

std::optional<FaultMode> FaultInjector::on_send(const Endpoint& link, std::uint16_t type,
                                                std::uint8_t* frame, std::size_t size) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = links_.find(link.to_string());
  if (it == links_.end()) return std::nullopt;
  auto fault = roll_locked(it->second, type);
  if (!fault) return std::nullopt;
  // Connect-only modes never fire on an established stream.
  if (*fault == FaultMode::kConnectRefused) return std::nullopt;
  if (*fault == FaultMode::kCorrupt && size >= serial::kHeaderSize) {
    // Flip bytes only in the CRC-protected span (id and payload); damaging
    // the magic, version or length would surface as a framing error instead
    // of the corruption path under test. The CRC field itself (header bytes
    // 12..15) is fair game too — a wrong CRC is indistinguishable from a
    // wrong payload.
    for (int flip = 0; flip < it->second.plan.corrupt_flips; ++flip) {
      const auto at = static_cast<std::size_t>(it->second.rng.uniform_int(
          12, static_cast<std::int64_t>(size) - 1));
      frame[at] ^= static_cast<std::uint8_t>(1 + (it->second.rng.next_u64() & 0xfe));
    }
  }
  return fault;
}

}  // namespace ns::net
