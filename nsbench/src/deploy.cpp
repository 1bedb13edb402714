#include "deploy.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>

#include "client/client.hpp"
#include "common/clock.hpp"

namespace nsbench {

using ns::ErrorCode;
using ns::make_error;

namespace {

ns::Result<std::uint16_t> pick_free_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return make_error(ErrorCode::kInternal, "socket(): " + std::string(strerror(errno)));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  const bool ok = ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
                  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0;
  ::close(fd);
  if (!ok) return make_error(ErrorCode::kInternal, "could not pick a free port");
  return ntohs(addr.sin_port);
}

bool accepts(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  const bool ok = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  ::close(fd);
  return ok;
}

/// fork + exec with stdout/stderr sent to `log_path`. The child dies with
/// the thread that spawned it (PR_SET_PDEATHSIG), so spawn from main().
ns::Result<pid_t> spawn(const std::string& path, const std::vector<std::string>& args,
                        const std::string& log_path) {
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(path.c_str()));
  for (const auto& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  const int log_fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (log_fd < 0) {
    return make_error(ErrorCode::kInternal, "cannot open " + log_path + ": " + strerror(errno));
  }
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(log_fd);
    return make_error(ErrorCode::kInternal, "fork(): " + std::string(strerror(errno)));
  }
  if (pid == 0) {
    // Only async-signal-safe calls between fork and exec.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(log_fd, STDOUT_FILENO);
    ::dup2(log_fd, STDERR_FILENO);
    ::execv(path.c_str(), argv.data());
    ::_exit(127);
  }
  ::close(log_fd);
  return pid;
}

/// Reaps `pid` if it has exited.
bool exited(pid_t pid) {
  const pid_t reaped = ::waitpid(pid, nullptr, WNOHANG);
  return reaped == pid || (reaped < 0 && errno == ECHILD);
}

/// Field `index` (1-based, as in proc(5)) of /proc/<pid>/stat.
double stat_field(pid_t pid, int index) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  const auto close = text.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream rest(text.substr(close + 2));
  std::string field;
  for (int i = 3; i <= index && rest >> field; ++i) {
    if (i == index) return std::stod(field);
  }
  return 0.0;
}

}  // namespace

ns::Result<std::unique_ptr<Deployment>> Deployment::start(const std::string& bin_dir,
                                                          const std::string& log_dir) {
  std::unique_ptr<Deployment> d(new Deployment());
  auto port = pick_free_port();
  if (!port.ok()) return port.error();
  const std::string runtime = "runtime=" + std::to_string(kDaemonRuntime);

  auto agent = spawn(bin_dir + "/netsolve_agent",
                     {"port=" + std::to_string(port.value()), "policy=mct", runtime},
                     log_dir + "/agent.log");
  if (!agent.ok()) return agent.error();
  d->daemons_.push_back(
      Daemon{"agent", agent.value(), ns::net::Endpoint{"127.0.0.1", port.value()}});

  const ns::Deadline listen_deadline(10.0);
  while (!accepts(port.value())) {
    if (exited(agent.value())) {
      d->daemons_.clear();
      return make_error(ErrorCode::kInternal, "agent exited at start; see agent.log");
    }
    if (listen_deadline.expired()) return make_error(ErrorCode::kTimeout, "agent never listened");
    ns::sleep_seconds(0.0005);
  }

  using NameSpeed = std::pair<const char*, const char*>;
  for (const auto& [name, speed] : {NameSpeed{"A", "1.0"}, NameSpeed{"B", "0.5"}}) {
    auto pid = spawn(bin_dir + "/netsolve_server",
                     {std::string("name=") + name, "agent_port=" + std::to_string(port.value()),
                      std::string("speed=") + speed, "workers=1",
                      "rating=" + std::to_string(kRatingMflops),
                      "report_period=" + std::to_string(kReportPeriod), runtime},
                     log_dir + "/server_" + name + ".log");
    if (!pid.ok()) return pid.error();
    d->daemons_.push_back(Daemon{name, pid.value(), {}});
  }

  ns::client::ClientConfig config;
  config.agents = {d->agent()};
  ns::client::NetSolveClient control(config);
  const ns::Deadline register_deadline(10.0);
  while (true) {
    auto stats = control.agent_stats();
    if (stats.ok() && stats.value().alive_servers == 2) break;
    for (auto it = d->daemons_.begin(); it != d->daemons_.end(); ++it) {
      if (exited(it->pid)) {
        const std::string name = it->name;
        d->daemons_.erase(it);
        return make_error(ErrorCode::kInternal, name + " exited at start; see its log");
      }
    }
    if (register_deadline.expired()) {
      return make_error(ErrorCode::kTimeout, "servers never registered with the agent");
    }
    ns::sleep_seconds(0.0005);
  }
  return d;
}

Deployment::~Deployment() { (void)stop(); }

void Deployment::set_server_endpoint(const std::string& name, const ns::net::Endpoint& endpoint) {
  for (auto& daemon : daemons_) {
    if (daemon.name == name) daemon.endpoint = endpoint;
  }
}

double Deployment::cpu_seconds() const {
  const double tick = static_cast<double>(::sysconf(_SC_CLK_TCK));
  double total = 0.0;
  for (const auto& daemon : daemons_) {
    total += (stat_field(daemon.pid, 14) + stat_field(daemon.pid, 15)) / tick;
  }
  return total;
}

double Deployment::peak_rss_mb() const {
  double kib = 0.0;
  for (const auto& daemon : daemons_) {
    std::ifstream in("/proc/" + std::to_string(daemon.pid) + "/status");
    std::string key;
    while (in >> key) {
      if (key == "VmHWM:") {
        double value = 0.0;
        in >> value;
        kib += value;
        break;
      }
      in.ignore(1 << 12, '\n');
    }
  }
  return kib * 1024.0 / 1e6;
}

ns::Status Deployment::stop() {
  if (daemons_.empty()) return ns::ok_status();
  for (const auto& daemon : daemons_) ::kill(daemon.pid, SIGTERM);
  std::string killed;
  for (const auto& daemon : daemons_) {
    const ns::Deadline grace(10.0);
    while (!exited(daemon.pid)) {
      if (grace.expired()) {
        ::kill(daemon.pid, SIGKILL);
        ::waitpid(daemon.pid, nullptr, 0);
        killed += " " + daemon.name;
        break;
      }
      ns::sleep_seconds(0.002);
    }
  }
  std::string alive;
  for (const auto& daemon : daemons_) {
    if (::kill(daemon.pid, 0) == 0 || errno != ESRCH) alive += " " + daemon.name;
  }
  daemons_.clear();
  if (!alive.empty()) return make_error(ErrorCode::kInternal, "daemons still alive:" + alive);
  if (!killed.empty()) {
    return make_error(ErrorCode::kInternal, "daemons ignored SIGTERM:" + killed);
  }
  return ns::ok_status();
}

double self_cpu_seconds() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

HostTicks host_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  HostTicks t;
  // user nice system idle iowait irq softirq steal (guest time is already
  // counted in user and nice).
  double ticks = 0.0;
  for (int i = 0; i < 8 && in >> ticks; ++i) {
    t.total += ticks;
    if (i == 7) t.steal = ticks;
  }
  return t;
}

}  // namespace nsbench
