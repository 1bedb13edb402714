// Benchmark workloads: seeded inputs, the order each caller issues them in,
// and the check every reply must pass.
//
// A workload fixes the calls of one round, problem and size, in order; the
// seed draws the values. Runs with different seeds therefore do the same
// work in the same order, which keeps the end-to-end figures comparable
// across seeds.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "dsl/value.hpp"

namespace nsbench {

enum class Kind { kDdot, kDaxpy, kDgesv, kCg };

/// One call's inputs plus what a correct reply looks like.
struct Job {
  Kind kind = Kind::kDdot;
  std::string problem;
  std::vector<ns::dsl::DataObject> args;
  std::uint64_t arg_bytes = 0;   // dsl::args_byte_size(args)
  std::uint64_t size_hint = 1;   // the client's size hint (largest argument)
  /// ddot: the locally computed dot product. daxpy: unused.
  double expected = 0.0;
  /// daxpy: the locally computed y + alpha x.
  ns::linalg::Vector expected_vector;
  /// Scale the tolerance is relative to (see check_reply).
  double scale = 0.0;
  /// Size label for reports: vector MiB, matrix order, or grid side.
  std::size_t label = 0;
};

struct Workload {
  std::string name;
  std::vector<Job> jobs;
  /// Per caller, the job indices of one round, issued in order and repeated.
  std::vector<std::vector<std::size_t>> rounds;
  int callers() const { return static_cast<int>(rounds.size()); }
};

/// The three workloads: "small_solve", "bulk_transfer", "compute_mix".
ns::Result<Workload> make_workload(const std::string& name, std::uint64_t seed);

/// One job of `kind` at `size`: vector length (ddot, daxpy), matrix order
/// (dgesv) or grid side (cg).
Job make_job(Kind kind, std::size_t size, ns::Rng& rng);

/// The reply a correct server sends, computed locally with linalg.
std::vector<ns::dsl::DataObject> local_reply(const Job& job);

/// Empty when `outputs` is a correct reply to `job`; otherwise the reason.
///   ddot   |r - dot(x, y)|            <= 1e-12 * sum |x_i y_i|
///   daxpy  max_i |y_i - (y + a x)_i| <= 1e-12 * max_i (|a x_i| + |y_i|)
///   dgesv  ||A x - b||_inf <= 1e-11 * (||A||_inf ||x||_inf + ||b||_inf)
///   cg     iterations in [1, 10000] and ||A x - b||_2 <= 1e-8 * ||b||_2
std::string check_reply(const Job& job, const std::vector<ns::dsl::DataObject>& outputs);

/// Corrupt a correct reply the way a faulty server might (test hook for
/// showing that check_reply counts a wrong answer).
void tamper(std::vector<ns::dsl::DataObject>& outputs);

}  // namespace nsbench
