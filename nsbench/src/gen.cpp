// nsbench_gen: deploys agent + servers A and B, drives one workload through
// the public client API, checks every reply, and prints its measurements
// as one JSON line on stdout. nsbench/run.py runs it; see the README there.
//
//   nsbench_gen --mode setup|run --workload NAME --seed N --seconds S
//               --trace 0|1 --bin-dir DIR --out-dir DIR [--tamper-every K]
//
// mode=setup   spawn, register, one verified call, tear down; prints setup_s.
// mode=run     the same set-up, 1 s of warm-up, then closed-loop callers for S
//              seconds, cut into one-second slices that each record the
//              CPU time used and the host's steal (see end_to_end()).
//              trace=0 reports the end-to-end metrics. trace=1
//              splits S into an untraced and a traced half, keeps every
//              call's spans in memory, replays the workload's inputs through
//              each module, measures the host floors, and reports the
//              per-layer metrics.
// --tamper-every K corrupts every K-th reply before it is checked, to show
// that a wrong answer is counted as a failure.
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "agent/predictor.hpp"
#include "client/client.hpp"
#include "common/clock.hpp"
#include "common/log.hpp"
#include "deploy.hpp"
#include "layers.hpp"
#include "workloads.hpp"

using namespace nsbench;
using ns::Stopwatch;

namespace {

constexpr double kWarmupSeconds = 1.0;
constexpr double kSliceSeconds = 1.0;
/// A slice with at most this share of host steal reads like an idle host.
constexpr double kQuietSteal = 0.03;

struct Options {
  std::string mode = "run";
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string bin_dir;
  std::string out_dir = ".";
  std::uint64_t tamper_every = 0;
};

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--mode") o.mode = value;
    else if (key == "--workload") o.workload = value;
    else if (key == "--seed") o.seed = std::stoull(value);
    else if (key == "--seconds") o.seconds = std::stod(value);
    else if (key == "--trace") o.trace = value == "1";
    else if (key == "--bin-dir") o.bin_dir = value;
    else if (key == "--out-dir") o.out_dir = value;
    else if (key == "--tamper-every") o.tamper_every = std::stoull(value);
    else return false;
  }
  return argc % 2 == 1 && !o.workload.empty() && !o.bin_dir.empty() &&
         (o.mode == "setup" || o.mode == "run");
}

/// Compact JSON object builder (numbers printed with all their digits).
class Json {
 public:
  Json& num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    return raw(key, buf);
  }
  Json& str(const std::string& key, const std::string& v) {
    std::string quoted = "\"";
    for (const char c : v) {
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += (c == '\n' ? ' ' : c);
    }
    return raw(key, quoted + "\"");
  }
  Json& raw(const std::string& key, const std::string& json) {
    if (!body_.empty()) body_ += ',';
    body_ += '"';
    body_ += key;
    body_ += "\":";
    body_ += json;
    return *this;
  }
  std::string done() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

struct CallSample {
  double end_s = 0.0;  // since the phase began
  double latency_s = 0.0;
  std::uint64_t bytes = 0;  // arguments plus results
  bool ok = false;
};

struct TracedCall {
  double start_s = 0.0;  // since the phase began
  double call_s = 0.0;   // the benchmark's own span around netsl
  std::size_t job = 0;
  ns::client::CallStats stats;
};

/// One slice of a phase, from the previous slice's end (or 0) to end_s.
struct Slice {
  double end_s = 0.0;
  double cpu_s = 0.0;       // daemons plus this process
  double steal_frac = 0.0;  // share of host CPU time the hypervisor took
};

struct Phase {
  double elapsed_s = 0.0;
  double cpu_s = 0.0;  // daemons plus this process
  double steal_frac = 0.0;
  std::vector<Slice> slices;
  std::vector<CallSample> calls;
  std::vector<TracedCall> traced;
  std::vector<std::string> failures;  // the first few reasons
  std::uint64_t failed = 0;
};

/// Closed-loop callers: each sends its next call only when the previous
/// reply has arrived and been checked. A phase ends when its time is up and
/// every caller has finished the round it is in.
class Callers {
 public:
  Callers(const Workload& w, const ns::net::Endpoint& agent, std::uint64_t tamper_every)
      : w_(w), next_(w.rounds.size(), 0), tamper_every_(tamper_every) {
    for (int c = 0; c < w.callers(); ++c) {
      ns::client::ClientConfig config;
      config.agents = {agent};
      clients_.push_back(std::make_unique<ns::client::NetSolveClient>(config));
    }
  }

  Phase run(double seconds, bool traced, const Deployment& d) {
    const int n = w_.callers();
    std::vector<Phase> per(static_cast<std::size_t>(n));
    std::atomic<bool> stop{false};
    Phase all;
    double cpu = d.cpu_seconds() + self_cpu_seconds();
    HostTicks host = host_ticks();
    const HostTicks host0 = host;
    const Stopwatch phase_watch;
    auto end_slice = [&] {
      const double cpu_now = d.cpu_seconds() + self_cpu_seconds();
      const HostTicks host_now = host_ticks();
      const double ticks = host_now.total - host.total;
      all.slices.push_back(
          {phase_watch.elapsed(), cpu_now - cpu, ticks > 0 ? (host_now.steal - host.steal) / ticks : 0.0});
      cpu = cpu_now;
      host = host_now;
    };
    std::vector<std::thread> threads;
    for (int c = 0; c < n; ++c) {
      threads.emplace_back(
          [&, c] { loop(c, traced, stop, phase_watch, per[static_cast<std::size_t>(c)]); });
    }
    for (double left = seconds; left > 0; left = seconds - phase_watch.elapsed()) {
      ns::sleep_seconds(std::min(kSliceSeconds, left));
      end_slice();
    }
    stop = true;
    for (auto& t : threads) t.join();
    end_slice();  // the callers' last rounds
    all.elapsed_s = phase_watch.elapsed();
    for (const auto& slice : all.slices) all.cpu_s += slice.cpu_s;
    const double ticks = host.total - host0.total;
    all.steal_frac = ticks > 0 ? (host.steal - host0.steal) / ticks : 0.0;
    for (auto& p : per) {
      all.calls.insert(all.calls.end(), p.calls.begin(), p.calls.end());
      std::move(p.traced.begin(), p.traced.end(), std::back_inserter(all.traced));
      all.failed += p.failed;
      for (auto& f : p.failures) {
        if (all.failures.size() < 5) all.failures.push_back(f);
      }
    }
    return all;
  }

 private:
  void loop(int c, bool traced, const std::atomic<bool>& stop, const Stopwatch& phase_watch,
            Phase& out) {
    const auto& round = w_.rounds[static_cast<std::size_t>(c)];
    auto& client = *clients_[static_cast<std::size_t>(c)];
    auto& next = next_[static_cast<std::size_t>(c)];
    // Whole rounds only, so every phase issues the workload's exact mix.
    while (!stop.load() || next % round.size() != 0) {
      const std::size_t j = round[next++ % round.size()];
      const Job& job = w_.jobs[j];
      TracedCall t;
      t.start_s = phase_watch.elapsed();
      const Stopwatch watch;
      auto result = client.netsl(job.problem, job.args, traced ? &t.stats : nullptr);
      const double latency = watch.elapsed();
      CallSample s;
      s.end_s = t.start_s + latency;
      s.latency_s = latency;
      std::string why;
      if (!result.ok()) {
        why = result.error().to_string();
      } else {
        if (tamper_every_ > 0 && (count_.fetch_add(1) + 1) % tamper_every_ == 0) {
          tamper(result.value());
        }
        why = check_reply(job, result.value());
        s.bytes = job.arg_bytes + ns::dsl::args_byte_size(result.value());
      }
      s.ok = why.empty();
      if (!s.ok) {
        ++out.failed;
        if (out.failures.size() < 5) out.failures.push_back(job.problem + ": " + why);
      }
      out.calls.push_back(s);
      if (traced && s.ok) {
        t.call_s = latency;
        t.job = j;
        out.traced.push_back(std::move(t));
      }
    }
  }

  const Workload& w_;
  std::vector<std::unique_ptr<ns::client::NetSolveClient>> clients_;
  std::vector<std::size_t> next_;
  std::uint64_t tamper_every_;
  std::atomic<std::uint64_t> count_{0};
};

std::string host_json() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::string cpus;
  int allowed = 0;
  if (::sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int i = 0; i < CPU_SETSIZE; ++i) {
      if (!CPU_ISSET(i, &set)) continue;
      if (!cpus.empty()) cpus += ',';
      cpus += std::to_string(i);
      ++allowed;
    }
  }
  const long online = ::sysconf(_SC_NPROCESSORS_ONLN);
  return Json()
      .num("nproc", static_cast<double>(online))
      .str("affinity", cpus)
      .str("pinned", allowed < online ? "yes" : "no")
      .str("compiler", NSBENCH_COMPILER)
      .str("build_type", NSBENCH_BUILD_TYPE)
      .done();
}

double span_sum(const ns::client::CallStats& st, const std::string& name) {
  double total = 0.0;
  for (const auto& s : st.spans) {
    if (s.name == name) total += s.duration_s;
  }
  return total;
}

double last_span(const ns::client::CallStats& st, const std::string& name) {
  double last = 0.0;
  for (const auto& s : st.spans) {
    if (s.name == name) last = s.duration_s;
  }
  return last;
}

double tail_quantile(const std::string& workload) {
  return workload == "small_solve" ? 0.99 : 0.90;
}

/// End-to-end metrics of an untraced phase, added to `out`.
///
/// The bounded three are taken over the calls that ended in quiet
/// one-second slices: those where the hypervisor took at most kQuietSteal
/// of the host's CPU time (steal), or the quieter half of the slices if
/// fewer are that quiet. On a shared host steal comes in bursts of seconds;
/// in a second with 20 % steal a small_solve call's median latency doubles,
/// while seconds with under 3 % read the same as an idle host. So the
/// bounded metrics describe the program, not its neighbours, and on a quiet
/// host they cover the whole window. The e2e.* mean and tails are taken
/// over every call, as context.
Json& end_to_end(const Phase& p, Json& out) {
  std::vector<double> steal;
  for (const auto& slice : p.slices) steal.push_back(slice.steal_frac);
  const double steal_cut = std::max(kQuietSteal, quantile(steal, 0.5));
  std::vector<bool> quiet;
  double quiet_cpu_s = 0.0;
  for (const auto& slice : p.slices) {
    quiet.push_back(slice.steal_frac <= steal_cut);
    if (quiet.back()) quiet_cpu_s += slice.cpu_s;
  }
  std::vector<double> all_ms, quiet_ms, quiet_MBps;
  double ok = 0.0;
  for (const auto& c : p.calls) {
    all_ms.push_back(c.latency_s * 1e3);
    ok += c.ok ? 1.0 : 0.0;
    const auto slice = std::upper_bound(p.slices.begin(), p.slices.end(), c.end_s,
                                        [](double t, const Slice& s) { return t < s.end_s; });
    const auto i = std::min<std::size_t>(slice - p.slices.begin(), p.slices.size() - 1);
    if (!quiet[i]) continue;
    quiet_ms.push_back(c.latency_s * 1e3);
    if (c.ok) quiet_MBps.push_back(static_cast<double>(c.bytes) / c.latency_s / 1e6);
  }
  return out.num("call_p50_ms", quantile(quiet_ms, 0.5))
      .num("payload_MBps", quantile(quiet_MBps, 0.5))
      .num("cpu_ms_per_call", quiet_ms.empty() ? 0.0 : quiet_cpu_s / quiet_ms.size() * 1e3)
      .num("e2e.calls_per_s", ok / p.elapsed_s)
      .num("e2e.call_p90_ms", quantile(all_ms, 0.90))
      .num("e2e.call_p99_ms", quantile(all_ms, 0.99))
      .num("host.steal_frac", p.steal_frac)
      .num("quiet_calls", static_cast<double>(quiet_ms.size()))
      .num("quiet_max_steal", steal_cut);
}

std::uint64_t scrape_sheds(const Deployment& d) {
  std::uint64_t total = 0;
  for (const auto& daemon : d.daemons()) {
    if (daemon.name == "agent") continue;
    auto snap = ns::client::scrape_metrics(daemon.endpoint, 5.0, "server.shed_total");
    if (!snap.ok()) continue;
    if (const auto* e = snap.value().find("server.shed_total")) total += e->count;
  }
  return total;
}

/// Per-layer metrics of a traced phase plus the replays and floors.
std::string per_layer(const Workload& w, const Deployment& d, const Phase& untraced,
                      const Phase& traced, const LayerReplay& r, std::uint64_t sheds,
                      double hit_ratio,
                      const std::map<std::string, ns::dsl::ProblemSpec>& specs) {
  std::vector<double> query_ms, sched_us, result_ms, queue_ms, compute_ms, wire_ms, ratio;
  double attempts = 0.0, total = 0.0, query = 0.0, sched = 0.0, server = 0.0, attempt = 0.0;
  double flops_a = 0.0, flops_all = 0.0, compute = 0.0;
  for (const auto& t : traced.traced) {
    const auto& st = t.stats;
    const double q = span_sum(st, "client.query"), s = span_sum(st, "agent.schedule");
    const double a = span_sum(st, "client.attempt"), qw = span_sum(st, "server.queue_wait");
    const double cp = span_sum(st, "server.compute");
    query_ms.push_back(q * 1e3);
    sched_us.push_back(s * 1e6);
    result_ms.push_back(span_sum(st, "client.result_transfer") * 1e3);
    queue_ms.push_back(qw * 1e3);
    compute_ms.push_back(cp * 1e3);
    wire_ms.push_back((a - qw - cp) * 1e3);
    if (st.predicted_seconds > 0) ratio.push_back(last_span(st, "client.attempt") / st.predicted_seconds);
    attempts += st.attempts;
    total += t.call_s;
    query += q;
    sched += s;
    server += qw + cp;
    attempt += a;
    compute += cp;
    const Job& job = w.jobs[t.job];
    const auto spec = specs.find(job.problem);
    if (spec != specs.end()) {
      const double f = ns::agent::profile_request(spec->second, job.size_hint, job.arg_bytes,
                                                  job.arg_bytes).flops;
      flops_all += f;
      if (st.server_name == "A") flops_a += f;
    }
  }
  const double n = static_cast<double>(traced.traced.size());
  const double serial = r.frame_us_per_call * 1e-6 * n / total;
  const double dsl = r.in_attempt_us_per_call * 1e-6 * n / total;
  const double cps_untraced = static_cast<double>(untraced.calls.size() - untraced.failed) / untraced.elapsed_s;
  const double cps_traced = static_cast<double>(traced.calls.size() - traced.failed) / traced.elapsed_s;
  Json out;
  return end_to_end(untraced, out)
      .num("client.query_ms_p50", quantile(query_ms, 0.5))
      .num("client.attempts_per_call", attempts / n)
      .num("client.result_transfer_ms_p50", quantile(result_ms, 0.5))
      .num("agent.schedule_us_p50", quantile(sched_us, 0.5))
      .num("agent.predict_us", r.predict_us)
      .num("agent.predict_ratio_p50", quantile(ratio, 0.5))
      .num("agent.predict_ratio_p90", quantile(ratio, 0.9))
      .num("agent.fast_server_share", flops_all > 0 ? flops_a / flops_all : 0.0)
      .num("server.queue_wait_ms_p50", quantile(queue_ms, 0.5))
      .num("server.queue_wait_ms_p90", quantile(queue_ms, 0.9))
      .num("server.compute_ms_p50", quantile(compute_ms, 0.5))
      .num("server.busy_frac", compute / (traced.elapsed_s * 2.0))
      .num("server.shed_total", static_cast<double>(sheds))
      .num("server.peak_rss_mb", d.peak_rss_mb())
      .num("net.wire_ms_p50", quantile(wire_ms, 0.5))
      .num("net.pool.hit_ratio", hit_ratio)
      .num("net.unattributed_frac", (total - query - attempt) / total)
      .num("serial.crc32_MBps", r.crc32_MBps)
      .num("serial.crc_bytes_per_call", r.crc_bytes_per_call)
      .num("serial.frame_us_per_call", r.frame_us_per_call)
      .num("dsl.encode_args_MBps", r.encode_args_MBps)
      .num("dsl.decode_args_MBps", r.decode_args_MBps)
      .num("proto.solve_request_roundtrip_us", r.solve_request_roundtrip_us)
      .num("linalg.dgesv_gflops", r.dgesv_gflops)
      .num("linalg.cg_ms", r.cg_ms)
      .num("linalg.cg_iterations", r.cg_iterations)
      .num("linalg.ddot_GBps", r.ddot_GBps)
      .num("host.tcp_rtt_us", tcp_rtt_us())
      .num("host.memcpy_GBps", memcpy_GBps())
      .num("trace.overhead_frac", (cps_untraced - cps_traced) / cps_untraced)
      .num("split.client_frac", (query - sched) / total)
      .num("split.agent_frac", sched / total)
      .num("split.serial_frac", serial)
      .num("split.dsl_frac", dsl)
      .num("split.net_frac", std::max(0.0, (attempt - server) / total - serial - dsl))
      .num("split.server_frac", server / total)
      .done();
}

/// Spans of the first traced calls, one JSON object per line.
void write_spans(const std::string& path, const Workload& w, const Phase& traced) {
  std::ofstream out(path);
  std::size_t written = 0;
  for (const auto& t : traced.traced) {
    if (++written > 1000) break;
    std::string spans = "[[\"call\",0," + std::to_string(t.call_s) + "]";
    for (const auto& s : t.stats.spans) {
      spans += ",[\"" + s.name + "\"," + std::to_string(s.start_s) + "," +
               std::to_string(s.duration_s) + "]";
    }
    out << Json()
               .str("trace_id", ns::trace::trace_id_hex(t.stats.trace_id))
               .num("start_s", t.start_s)
               .str("problem", w.jobs[t.job].problem)
               .num("size", static_cast<double>(w.jobs[t.job].label))
               .str("server", t.stats.server_name)
               .raw("spans", spans + "]")
               .done()
        << "\n";
  }
}

int fail(const std::string& why) {
  std::fprintf(stderr, "nsbench_gen: %s\n", why.c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  if (!parse(argc, argv, o)) {
    return fail("usage: nsbench_gen --mode setup|run --workload NAME --seed N --seconds S "
                "--trace 0|1 --bin-dir DIR --out-dir DIR [--tamper-every K]");
  }
  ns::log::set_threshold(ns::log::Level::kError);
  ns::Rng setup_rng(o.seed);
  const Job first = make_job(Kind::kDdot, 64, setup_rng);

  // Set-up: spawn, registration, and the first verified call.
  const Stopwatch setup_watch;
  auto started = Deployment::start(o.bin_dir, o.out_dir);
  if (!started.ok()) return fail("deployment: " + started.error().to_string());
  Deployment& d = *started.value();
  ns::client::ClientConfig control_config;
  control_config.agents = {d.agent()};
  ns::client::NetSolveClient control(control_config);
  {
    auto reply = control.netsl(first.problem, first.args);
    if (!reply.ok()) return fail("first call: " + reply.error().to_string());
    const std::string why = check_reply(first, reply.value());
    if (!why.empty()) return fail("first call: " + why);
  }
  const double setup_s = setup_watch.elapsed();

  Json out;
  out.num("setup_s", setup_s).raw("host", host_json());
  if (o.mode == "run") {
    auto workload = make_workload(o.workload, o.seed);
    if (!workload.ok()) return fail(workload.error().to_string());
    const Workload& w = workload.value();
    Callers callers(w, d.agent(), o.tamper_every);
    (void)callers.run(kWarmupSeconds, false, d);
    Phase measured;
    if (!o.trace) {
      measured = callers.run(o.seconds, false, d);
      Json metrics;
      out.raw("metrics", end_to_end(measured, metrics).num("peak_rss_mb", d.peak_rss_mb()).done());
    } else {
      std::map<std::string, ns::dsl::ProblemSpec> specs;
      if (auto list = control.list_problems(); list.ok()) {
        for (auto& spec : list.value()) specs[spec.name] = spec;
      }
      if (auto list = control.query(first.problem, first.args); list.ok()) {
        for (const auto& cand : list.value().candidates) {
          d.set_server_endpoint(cand.server_name, cand.endpoint);
        }
      }
      const Phase untraced = callers.run(o.seconds / 2, false, d);
      const std::uint64_t sheds0 = scrape_sheds(d);
      auto& hits = ns::metrics::counter("net.pool.hits_total");
      auto& misses = ns::metrics::counter("net.pool.misses_total");
      const double hits0 = static_cast<double>(hits.value());
      const double misses0 = static_cast<double>(misses.value());
      measured = callers.run(o.seconds / 2, true, d);
      const double dh = static_cast<double>(hits.value()) - hits0;
      const double dm = static_cast<double>(misses.value()) - misses0;
      const std::uint64_t sheds = scrape_sheds(d) - sheds0;
      write_spans(o.out_dir + "/spans.jsonl", w, measured);
      ns::Rng fallback_rng(o.seed);
      const std::vector<Job> fallback = {make_job(Kind::kDdot, 131072, fallback_rng),
                                         make_job(Kind::kDgesv, 256, fallback_rng),
                                         make_job(Kind::kCg, 96, fallback_rng)};
      const LayerReplay replay = replay_layers(w, fallback, specs);
      out.raw("metrics", per_layer(w, d, untraced, measured, replay, sheds,
                                   dh + dm > 0 ? dh / (dh + dm) : 0.0, specs));
      measured.calls.insert(measured.calls.end(), untraced.calls.begin(), untraced.calls.end());
      measured.failed += untraced.failed;
      measured.failures.insert(measured.failures.end(), untraced.failures.begin(),
                               untraced.failures.end());
    }
    const double q = tail_quantile(o.workload);
    const double beyond = std::floor(static_cast<double>(measured.calls.size()) * (1.0 - q));
    std::string failures = "[";
    for (const auto& f : measured.failures) {
      failures += (failures.size() > 1 ? "," : "") + Json().str("why", f).done();
    }
    out.num("attempted", static_cast<double>(measured.calls.size()))
        .num("failed", static_cast<double>(measured.failed))
        .num("tail_quantile", q)
        .num("samples_beyond_tail", beyond)
        .raw("failures", failures + "]");
  }
  const auto stopped = d.stop();
  if (!stopped.ok()) return fail("teardown: " + stopped.error().to_string());
  std::printf("%s\n", out.done().c_str());
  return 0;
}
