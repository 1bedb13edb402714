// The benchmark's deployment: one agent and two compute servers, started
// as child processes from the repo's standalone daemons.
//
//   agent    policy=mct, fixed listen port picked at start
//   server A speed=1.0 workers=1 rating=kRatingMflops report_period=kReportPeriod
//   server B speed=0.5 workers=1 rating=kRatingMflops report_period=kReportPeriod
//
// The fixed rating keeps the predictor's ranking independent of a start-up
// host calibration; B's emulated half speed makes the pair heterogeneous.
// Every daemon also gets runtime= and a parent-death signal, so none can
// outlive the benchmark even if it is killed.
#pragma once

#include <sys/types.h>

#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "net/endpoint.hpp"

namespace nsbench {

inline constexpr double kRatingMflops = 1000.0;
inline constexpr double kReportPeriod = 0.1;
/// Daemons exit on their own after this long, whatever happens to us.
inline constexpr double kDaemonRuntime = 170.0;

struct Daemon {
  std::string name;
  pid_t pid = -1;
  ns::net::Endpoint endpoint;  // listen address (servers: learned from the agent)
};

class Deployment {
 public:
  /// Spawn the agent, wait until it accepts, spawn both servers, and return
  /// once the agent lists both as alive. `bin_dir` holds netsolve_agent and
  /// netsolve_server; their stdout and stderr go to files in `log_dir`.
  static ns::Result<std::unique_ptr<Deployment>> start(const std::string& bin_dir,
                                                       const std::string& log_dir);
  ~Deployment();

  const ns::net::Endpoint& agent() const { return daemons_.front().endpoint; }
  const std::vector<Daemon>& daemons() const { return daemons_; }
  /// Record the servers' listen endpoints (from an agent query).
  void set_server_endpoint(const std::string& name, const ns::net::Endpoint& endpoint);

  /// User plus system CPU seconds all daemons have used so far.
  double cpu_seconds() const;
  /// Sum of the daemons' peak resident set sizes (VmHWM), in MB (1e6
  /// bytes). It grows with the calls served: each server keeps its last 512
  /// results for late probes.
  double peak_rss_mb() const;

  /// SIGTERM every daemon, reap it, and fail if any is still alive after.
  ns::Status stop();

 private:
  Deployment() = default;
  std::vector<Daemon> daemons_;  // agent first
};

/// User plus system CPU seconds of this process (all threads).
double self_cpu_seconds();

/// Host-wide CPU time in clock ticks, from the first line of /proc/stat:
/// all of it, and the part the hypervisor gave to other guests (steal; 0
/// where the kernel does not count it).
struct HostTicks {
  double total = 0.0;
  double steal = 0.0;
};
HostTicks host_ticks();

}  // namespace nsbench
