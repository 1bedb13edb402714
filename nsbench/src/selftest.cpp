// Self-test of the benchmark's reply checks: every correct reply passes,
// and the same reply after tamper() fails. Exits 0 on success.
#include <cstdio>

#include "workloads.hpp"

using namespace nsbench;

namespace {

int g_failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++g_failures;
  }
}

}  // namespace

int main() {
  ns::Rng rng(7);
  const Job jobs[] = {make_job(Kind::kDdot, 64, rng), make_job(Kind::kDaxpy, 4096, rng),
                      make_job(Kind::kDgesv, 64, rng), make_job(Kind::kCg, 16, rng)};
  for (const Job& job : jobs) {
    auto reply = local_reply(job);
    expect(check_reply(job, reply).empty(), ("correct " + job.problem + " reply passes").c_str());
    tamper(reply);
    expect(!check_reply(job, reply).empty(), ("tampered " + job.problem + " reply fails").c_str());
    expect(!check_reply(job, {}).empty(), ("empty " + job.problem + " reply fails").c_str());
  }

  // Same seed, same inputs; another seed, other values but the same mix.
  for (const char* name : {"small_solve", "bulk_transfer", "compute_mix"}) {
    const auto a = make_workload(name, 3).value();
    const auto b = make_workload(name, 3).value();
    const auto c = make_workload(name, 4).value();
    expect(a.rounds == b.rounds && a.jobs.size() == b.jobs.size(), "rounds repeat per seed");
    bool same = true, same_mix = a.jobs.size() == c.jobs.size();
    for (std::size_t i = 0; i < a.jobs.size(); ++i) {
      same = same && a.jobs[i].args == b.jobs[i].args;
      same_mix = same_mix && a.jobs[i].arg_bytes == c.jobs[i].arg_bytes;
    }
    expect(same, "inputs repeat per seed");
    expect(same_mix, "the call mix does not depend on the seed");
    expect(!(a.jobs[0].args == c.jobs[0].args), "another seed draws other values");
  }
  std::printf("%s\n", g_failures == 0 ? "nsbench selftest: ok" : "nsbench selftest: FAILED");
  return g_failures == 0 ? 0 : 1;
}
