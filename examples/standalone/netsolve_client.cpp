// Standalone NetSolve client CLI.
//
//   $ netsolve_client agent_port=9000 cmd=list
//   $ netsolve_client agents=127.0.0.1:9000,127.0.0.1:9001 cmd=solve n=300
//   $ netsolve_client agent_port=9000 cmd=bench n=200 calls=10
//   $ netsolve_client agent_port=9000 cmd=metrics prefix=span.
//
// agents=h:p,h:p  comma-separated agent list in failover order (overrides
//                 agent_host/agent_port); the client fails over down the
//                 list when an agent dies and falls back to its cached
//                 candidate lists when all are down
// cmd=list    print the agent's problem catalogue and server pool
// cmd=solve   generate a random system of order n and solve it remotely
// cmd=bench   time `calls` solves and print a latency summary
// cmd=metrics scrape the target process's metrics registry (METRICS_QUERY);
//             point host/port at an agent or a server, filter with prefix=,
//             add json=1 for the machine-readable dump (scrapes the first
//             configured agent)
// cmd=drain   gracefully drain the server at host=/port= (rolling restarts):
//             it stops accepting work, deregisters from its agents, and
//             finishes or cancels its queue within deadline= seconds
//             (0 = the server's io timeout); a drained netsolve_server
//             process exits on its own
// cmd=submit  fire simwork(mflop=) at the server at host=/port= under a
//             caller-chosen id= and return immediately (the durable-jobs
//             workflow: submit, crash/restart the server, reattach with
//             cmd=probe); add wait= seconds to block for the reply instead
// cmd=probe   netslpr/netslwt against the server at host=/port=: one probe
//             of id= prints its state/iteration/residual; with wait= seconds
//             it polls until the job is terminal and fetches the stored
//             result (surviving server restarts and following migrations)
#include <cstdio>

#include "client/client.hpp"
#include "common/clock.hpp"
#include "common/config.hpp"
#include "linalg/blas.hpp"
#include "linalg/matrix.hpp"
#include "net/pool.hpp"

using namespace ns;
using dsl::DataObject;

namespace {

int cmd_list(client::NetSolveClient& client) {
  auto problems = client.list_problems();
  if (!problems.ok()) {
    std::fprintf(stderr, "list failed: %s\n", problems.error().to_string().c_str());
    return 1;
  }
  std::printf("%-14s %-8s %-8s complexity\n", "problem", "inputs", "outputs");
  for (const auto& p : problems.value()) {
    std::printf("%-14s %-8zu %-8zu %.3g * N^%.3g\n", p.name.c_str(), p.inputs.size(),
                p.outputs.size(), p.complexity.a, p.complexity.b);
  }
  auto stats = client.agent_stats();
  if (stats.ok()) {
    std::printf("agent: %u alive servers, %llu queries served\n",
                stats.value().alive_servers,
                static_cast<unsigned long long>(stats.value().queries));
    for (const auto& peer : stats.value().peers) {
      if (peer.age_seconds < 0) {
        std::printf("  peer %s: %s (never reached)\n", peer.endpoint.to_string().c_str(),
                    peer.alive ? "alive" : "down");
      } else {
        std::printf("  peer %s: %s (last sync %.1fs ago)\n",
                    peer.endpoint.to_string().c_str(), peer.alive ? "alive" : "down",
                    peer.age_seconds);
      }
    }
  }
  return 0;
}

int cmd_solve(client::NetSolveClient& client, std::size_t n, const std::string& problem) {
  Rng rng(12345);
  const auto a = linalg::Matrix::random_diag_dominant(n, rng);
  const auto b = linalg::random_vector(n, rng);
  client::CallStats stats;
  auto out = client.netsl(problem, {DataObject(a), DataObject(b)}, &stats);
  if (!out.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", problem.c_str(),
                 out.error().to_string().c_str());
    return 1;
  }
  std::printf("%s(n=%zu) on '%s': total %.1f ms (compute %.1f ms, transfer %.1f ms), "
              "residual %.2e\n",
              problem.c_str(), n, stats.server_name.c_str(), stats.total_seconds * 1e3,
              stats.exec_seconds * 1e3, stats.transfer_seconds * 1e3,
              linalg::residual_inf(a, out.value()[0].as_vector(), b));
  return 0;
}

int cmd_bench(client::NetSolveClient& client, std::size_t n, int calls) {
  Rng rng(777);
  const auto a = linalg::Matrix::random_diag_dominant(n, rng);
  const auto b = linalg::random_vector(n, rng);
  double total = 0, best = 1e300, worst = 0;
  for (int i = 0; i < calls; ++i) {
    const Stopwatch watch;
    auto out = client.netsl("dgesv", {DataObject(a), DataObject(b)});
    if (!out.ok()) {
      std::fprintf(stderr, "call %d failed: %s\n", i, out.error().to_string().c_str());
      return 1;
    }
    const double t = watch.elapsed();
    total += t;
    best = std::min(best, t);
    worst = std::max(worst, t);
  }
  std::printf("dgesv(n=%zu) x%d: mean %.1f ms, min %.1f ms, max %.1f ms\n", n, calls,
              total / calls * 1e3, best * 1e3, worst * 1e3);
  return 0;
}

int cmd_drain(const net::Endpoint& server, double deadline_s) {
  auto ack = client::drain_server(server, deadline_s);
  if (!ack.ok()) {
    std::fprintf(stderr, "drain failed: %s\n", ack.error().to_string().c_str());
    return 1;
  }
  std::printf("drain %s on %s: %u running, %u queued at drain start\n",
              ack.value().started ? "started" : "already in progress",
              server.to_string().c_str(), ack.value().running, ack.value().queued);
  return 0;
}

int cmd_submit(const net::Endpoint& server, std::uint64_t id, std::int64_t mflop,
               double wait_s) {
  proto::SolveRequest request;
  request.request_id = id;
  request.problem = "simwork";
  request.args = {DataObject(mflop)};
  serial::Encoder enc;
  request.encode(enc);
  const serial::Bytes payload = enc.take();
  const auto type = static_cast<std::uint16_t>(proto::MessageType::kSolveRequest);
  if (wait_s <= 0.0) {
    // Fire-and-forget; reattach with cmd=probe.
    auto sent = net::post(server, type, payload, /*dial_timeout_s=*/5.0);
    if (!sent.ok()) {
      std::fprintf(stderr, "submit failed: %s\n", sent.error().to_string().c_str());
      return 1;
    }
    std::printf("submitted simwork(%lld) as request %llu to %s\n",
                static_cast<long long>(mflop), static_cast<unsigned long long>(id),
                server.to_string().c_str());
    return 0;
  }
  auto reply = net::call(server, type, payload, wait_s, /*dial_timeout_s=*/5.0);
  if (!reply.ok()) {
    std::fprintf(stderr, "no reply: %s\n", reply.error().to_string().c_str());
    return 1;
  }
  serial::Decoder dec(reply.value().payload);
  auto result = proto::SolveResult::decode(dec);
  if (!result.ok()) {
    std::fprintf(stderr, "bad reply: %s\n", result.error().to_string().c_str());
    return 1;
  }
  const auto code = static_cast<ErrorCode>(result.value().error_code);
  std::printf("request %llu finished: %s\n", static_cast<unsigned long long>(id),
              std::string(error_code_name(code)).c_str());
  return code == ErrorCode::kOk ? 0 : 1;
}

const char* job_state_name(proto::JobState state) {
  switch (state) {
    case proto::JobState::kQueued: return "queued";
    case proto::JobState::kRunning: return "running";
    case proto::JobState::kCompleted: return "completed";
    case proto::JobState::kFailed: return "failed";
    case proto::JobState::kUnknown: break;
  }
  return "unknown";
}

int cmd_probe(const net::Endpoint& server, std::uint64_t id, double wait_s) {
  if (wait_s > 0.0) {
    auto result = client::wait_for_job(server, id, wait_s);
    if (!result.ok()) {
      std::fprintf(stderr, "wait failed: %s\n", result.error().to_string().c_str());
      return 1;
    }
    const auto code = static_cast<ErrorCode>(result.value().error_code);
    std::printf("request %llu finished: %s\n", static_cast<unsigned long long>(id),
                std::string(error_code_name(code)).c_str());
    return code == ErrorCode::kOk ? 0 : 1;
  }
  auto reply = client::probe_request(server, id);
  if (!reply.ok()) {
    std::fprintf(stderr, "probe failed: %s\n", reply.error().to_string().c_str());
    return 1;
  }
  std::printf("probe id=%llu state=%s iteration=%llu residual=%.3g\n",
              static_cast<unsigned long long>(id), job_state_name(reply.value().state),
              static_cast<unsigned long long>(reply.value().iteration),
              reply.value().residual);
  return 0;
}

int cmd_metrics(const net::Endpoint& peer, const std::string& prefix, bool json) {
  auto snap = client::scrape_metrics(peer, /*timeout_s=*/5.0, prefix);
  if (!snap.ok()) {
    std::fprintf(stderr, "metrics scrape failed: %s\n", snap.error().to_string().c_str());
    return 1;
  }
  const std::string dump = json ? snap.value().to_json() : snap.value().to_text();
  std::printf("%s\n", dump.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  auto config = Config::from_args(argc - 1, argv + 1);
  if (!config.ok()) {
    std::fprintf(stderr, "bad arguments: %s\n", config.error().to_string().c_str());
    return 2;
  }
  client::ClientConfig client_config;
  if (const auto agents = config.value().get("agents")) {
    auto list = net::parse_endpoint_list(*agents);
    if (!list || list->empty()) {
      std::fprintf(stderr, "bad agents list '%s' (expected host:port,host:port,...)\n",
                   agents->c_str());
      return 2;
    }
    client_config.agents = std::move(*list);
  } else {
    net::Endpoint agent;
    agent.host = config.value().get_or("agent_host", "127.0.0.1");
    agent.port = static_cast<std::uint16_t>(config.value().get_int_or("agent_port", 9000));
    client_config.agents = {agent};
  }
  client::NetSolveClient client(client_config);

  const std::string cmd = config.value().get_or("cmd", "list");
  const auto n = static_cast<std::size_t>(config.value().get_int_or("n", 200));
  if (cmd == "list") return cmd_list(client);
  if (cmd == "solve") return cmd_solve(client, n, config.value().get_or("problem", "dgesv"));
  if (cmd == "bench") {
    return cmd_bench(client, n, static_cast<int>(config.value().get_int_or("calls", 10)));
  }
  if (cmd == "metrics") {
    return cmd_metrics(client_config.agents.front(), config.value().get_or("prefix", ""),
                       config.value().get_int_or("json", 0) != 0);
  }
  if (cmd == "drain" || cmd == "submit" || cmd == "probe") {
    net::Endpoint server;
    server.host = config.value().get_or("host", "127.0.0.1");
    server.port = static_cast<std::uint16_t>(config.value().get_int_or("port", 0));
    if (server.port == 0) {
      std::fprintf(stderr, "cmd=%s needs the server's port= (and host= if remote)\n",
                   cmd.c_str());
      return 2;
    }
    if (cmd == "drain") {
      return cmd_drain(server, config.value().get_double_or("deadline", 0.0));
    }
    const auto id = static_cast<std::uint64_t>(config.value().get_int_or("id", 1));
    if (cmd == "submit") {
      return cmd_submit(server, id, config.value().get_int_or("mflop", 100),
                        config.value().get_double_or("wait", 0.0));
    }
    return cmd_probe(server, id, config.value().get_double_or("wait", 0.0));
  }
  std::fprintf(stderr,
               "unknown cmd '%s' (use list | solve | bench | metrics | drain | submit | "
               "probe)\n",
               cmd.c_str());
  return 2;
}
