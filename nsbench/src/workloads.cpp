#include "workloads.hpp"

#include <algorithm>
#include <cmath>

#include "common/rng.hpp"
#include "linalg/blas.hpp"
#include "linalg/iterative.hpp"
#include "linalg/lu.hpp"
#include "linalg/sparse.hpp"

namespace nsbench {

using ns::Rng;
using ns::dsl::DataObject;
using ns::linalg::Matrix;
using ns::linalg::Vector;

namespace {

constexpr std::size_t kMiB = 1u << 20;

Vector random_vector(std::size_t n, Rng& rng) {
  Vector v(n);
  for (auto& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

void finish(Job& job) {
  job.arg_bytes = ns::dsl::args_byte_size(job.args);
  job.size_hint = 1;
  for (const auto& arg : job.args) {
    job.size_hint = std::max<std::uint64_t>(job.size_hint, arg.size_hint());
  }
}

Job ddot_job(std::size_t n, Rng& rng) {
  Job job;
  job.kind = Kind::kDdot;
  job.problem = "ddot";
  Vector x = random_vector(n, rng);
  Vector y = random_vector(n, rng);
  job.expected = ns::linalg::dot(x, y);
  for (std::size_t i = 0; i < n; ++i) job.scale += std::fabs(x[i] * y[i]);
  job.args = {DataObject(std::move(x)), DataObject(std::move(y))};
  finish(job);
  return job;
}

Job daxpy_job(std::size_t n, Rng& rng) {
  Job job;
  job.kind = Kind::kDaxpy;
  job.problem = "daxpy";
  const double alpha = rng.uniform(0.5, 2.0);
  Vector x = random_vector(n, rng);
  Vector y = random_vector(n, rng);
  job.expected_vector = y;
  ns::linalg::axpy(alpha, x, job.expected_vector);
  for (std::size_t i = 0; i < n; ++i) {
    job.scale = std::max(job.scale, std::fabs(alpha * x[i]) + std::fabs(y[i]));
  }
  job.args = {DataObject(alpha), DataObject(std::move(x)), DataObject(std::move(y))};
  finish(job);
  return job;
}

/// Strictly diagonally dominant, so LU with partial pivoting is stable and
/// the residual check is tight.
Job dgesv_job(std::size_t n, Rng& rng) {
  Job job;
  job.kind = Kind::kDgesv;
  job.problem = "dgesv";
  job.label = n;
  Matrix a(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < n; ++i) a(i, j) = rng.uniform(-1.0, 1.0);
  }
  for (std::size_t i = 0; i < n; ++i) a(i, i) = static_cast<double>(n) + rng.uniform(0.0, 1.0);
  job.args = {DataObject(std::move(a)), DataObject(random_vector(n, rng))};
  finish(job);
  return job;
}

/// 5-point Poisson operator on a side x side grid with a seeded right-hand
/// side (the "long iterative job").
Job cg_job(std::size_t side, Rng& rng) {
  Job job;
  job.kind = Kind::kCg;
  job.problem = "cg";
  job.label = side;
  Vector b = random_vector(side * side, rng);
  job.scale = ns::linalg::nrm2(b);
  job.args = {DataObject(ns::linalg::poisson_2d(side, side)), DataObject(std::move(b))};
  finish(job);
  return job;
}

double norm_inf(const Vector& v) {
  double m = 0.0;
  for (const double x : v) m = std::max(m, std::fabs(x));
  return m;
}

double matrix_norm_inf(const Matrix& a) {
  Vector row_sums(a.rows(), 0.0);
  for (std::size_t j = 0; j < a.cols(); ++j) {
    for (std::size_t i = 0; i < a.rows(); ++i) row_sums[i] += std::fabs(a(i, j));
  }
  return norm_inf(row_sums);
}

}  // namespace

Job make_job(Kind kind, std::size_t size, Rng& rng) {
  switch (kind) {
    case Kind::kDdot:
      return ddot_job(size, rng);
    case Kind::kDaxpy:
      return daxpy_job(size, rng);
    case Kind::kDgesv:
      return dgesv_job(size, rng);
    case Kind::kCg:
      return cg_job(size, rng);
  }
  return {};
}

ns::Result<Workload> make_workload(const std::string& name, std::uint64_t seed) {
  Rng rng(seed);
  Workload w;
  w.name = name;
  if (name == "small_solve") {
    // 2 callers, 32 distinct 64-element ddot inputs each.
    for (int c = 0; c < 2; ++c) {
      std::vector<std::size_t> round;
      for (int k = 0; k < 32; ++k) {
        round.push_back(w.jobs.size());
        w.jobs.push_back(make_job(Kind::kDdot, 64, rng));
      }
      w.rounds.push_back(std::move(round));
    }
  } else if (name == "bulk_transfer") {
    // 1 caller. A round is 6 (ddot, daxpy) pairs: four at 1 MiB vectors,
    // one at 4 MiB, one at 16 MiB. Of its 12 calls, the 4 ddot at 1 MiB are
    // the fastest and the 4 daxpy at 1 MiB next, so the median call is the
    // middle of the 1 MiB daxpy class, not a tail of it or the boundary
    // between two classes. The order is fixed, so every seed makes the same
    // calls in the same order.
    for (const std::size_t mib : {1, 4, 16}) {
      for (const Kind kind : {Kind::kDdot, Kind::kDaxpy}) {
        w.jobs.push_back(make_job(kind, mib * kMiB / sizeof(double), rng));
        w.jobs.back().label = mib;
      }
    }
    std::vector<std::size_t> round;
    for (const std::size_t p : {0, 1, 0, 0, 2, 0}) {
      round.push_back(2 * p);
      round.push_back(2 * p + 1);
    }
    w.rounds.push_back(std::move(round));
  } else if (name == "compute_mix") {
    // 3 callers, each with dgesv at N = 192, 256, 384 and cg on 64^2, 96^2
    // and 128^2 grids. The order is fixed, rotated by two jobs per caller so
    // the callers start on different kernels; a seeded order would make the
    // queueing pattern, and so the tail, vary with the seed.
    const std::pair<Kind, std::size_t> base[] = {{Kind::kDgesv, 192}, {Kind::kCg, 64},
                                                 {Kind::kDgesv, 256}, {Kind::kCg, 96},
                                                 {Kind::kDgesv, 384}, {Kind::kCg, 128}};
    for (std::size_t c = 0; c < 3; ++c) {
      std::vector<std::size_t> round;
      for (std::size_t k = 0; k < 6; ++k) {
        const auto& [kind, size] = base[(k + 2 * c) % 6];
        round.push_back(w.jobs.size());
        w.jobs.push_back(make_job(kind, size, rng));
      }
      w.rounds.push_back(std::move(round));
    }
  } else {
    return ns::make_error(ns::ErrorCode::kBadArguments, "unknown workload '" + name + "'");
  }
  return w;
}

std::vector<DataObject> local_reply(const Job& job) {
  switch (job.kind) {
    case Kind::kDdot:
      return {DataObject(job.expected)};
    case Kind::kDaxpy:
      return {DataObject(job.expected_vector)};
    case Kind::kDgesv:
      return {DataObject(
          ns::linalg::dgesv(job.args[0].as_matrix(), job.args[1].as_vector()).value())};
    case Kind::kCg: {
      auto r = ns::linalg::conjugate_gradient(job.args[0].as_sparse(), job.args[1].as_vector());
      return {DataObject(std::move(r.value().x)),
              DataObject(static_cast<std::int64_t>(r.value().iterations))};
    }
  }
  return {};
}

std::string check_reply(const Job& job, const std::vector<DataObject>& outputs) {
  switch (job.kind) {
    case Kind::kDdot: {
      if (outputs.size() != 1 || !outputs[0].is_double()) return "ddot: expected one double";
      const double err = std::fabs(outputs[0].as_double() - job.expected);
      if (!(err <= 1e-12 * job.scale + 1e-300)) return "ddot: wrong value";
      return {};
    }
    case Kind::kDaxpy: {
      if (outputs.size() != 1 || !outputs[0].is_vector()) return "daxpy: expected one vector";
      const Vector& y = outputs[0].as_vector();
      if (y.size() != job.expected_vector.size()) return "daxpy: wrong length";
      const double tol = 1e-12 * job.scale;
      for (std::size_t i = 0; i < y.size(); ++i) {
        if (!(std::fabs(y[i] - job.expected_vector[i]) <= tol)) return "daxpy: wrong value";
      }
      return {};
    }
    case Kind::kDgesv: {
      if (outputs.size() != 1 || !outputs[0].is_vector()) return "dgesv: expected one vector";
      const Matrix& a = job.args[0].as_matrix();
      const Vector& b = job.args[1].as_vector();
      const Vector& x = outputs[0].as_vector();
      if (x.size() != b.size()) return "dgesv: wrong length";
      const double r = ns::linalg::residual_inf(a, x, b);
      if (!(r <= 1e-11 * (matrix_norm_inf(a) * norm_inf(x) + norm_inf(b)))) {
        return "dgesv: residual too large";
      }
      return {};
    }
    case Kind::kCg: {
      if (outputs.size() != 2 || !outputs[0].is_vector() || !outputs[1].is_int()) {
        return "cg: expected a vector and an iteration count";
      }
      const auto& a = job.args[0].as_sparse();
      const Vector& b = job.args[1].as_vector();
      const Vector& x = outputs[0].as_vector();
      const std::int64_t iterations = outputs[1].as_int();
      if (x.size() != b.size()) return "cg: wrong length";
      if (iterations < 1 || iterations > 10000) return "cg: iteration count out of range";
      Vector r = a.multiply(x);
      for (std::size_t i = 0; i < r.size(); ++i) r[i] -= b[i];
      if (!(ns::linalg::nrm2(r) <= 1e-8 * job.scale)) return "cg: residual too large";
      return {};
    }
  }
  return "unknown job kind";
}

void tamper(std::vector<DataObject>& outputs) {
  if (outputs.empty()) return;
  DataObject& first = outputs[0];
  if (first.is_double()) {
    first = DataObject(first.as_double() + 1.0);
  } else if (first.is_vector()) {
    Vector v = first.as_vector();
    if (!v.empty()) v[v.size() / 2] += 1.0;
    first = DataObject(std::move(v));
  }
}

}  // namespace nsbench
