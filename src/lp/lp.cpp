#include "wimesh/lp/lp.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace wimesh {

VarId LpModel::add_variable(double lo, double up, double obj,
                            std::string name) {
  WIMESH_ASSERT_MSG(lo <= up, "variable created with empty domain");
  WIMESH_ASSERT(!std::isnan(lo) && !std::isnan(up) && std::isfinite(obj));
  vars_.push_back(Var{lo, up, obj, std::move(name)});
  return static_cast<VarId>(vars_.size() - 1);
}

RowId LpModel::add_constraint(const std::vector<LpTerm>& terms, RowSense sense,
                              double rhs, std::string name) {
  WIMESH_ASSERT(std::isfinite(rhs));
  // Merge duplicate variables so the solver sees clean rows.
  Row row;
  row.sense = sense;
  row.rhs = rhs;
  row.name = std::move(name);
  row.terms = terms;
  std::sort(row.terms.begin(), row.terms.end(),
            [](const LpTerm& a, const LpTerm& b) { return a.var < b.var; });
  std::vector<LpTerm> merged;
  for (const LpTerm& t : row.terms) {
    WIMESH_ASSERT(t.var >= 0 && t.var < variable_count());
    WIMESH_ASSERT(std::isfinite(t.coef));
    if (!merged.empty() && merged.back().var == t.var) {
      merged.back().coef += t.coef;
    } else {
      merged.push_back(t);
    }
  }
  row.terms = std::move(merged);
  rows_.push_back(std::move(row));
  return static_cast<RowId>(rows_.size() - 1);
}

void LpModel::set_bounds(VarId v, double lo, double up) {
  // lo > up is allowed here: branch & bound creates empty domains on
  // purpose and expects the solver to report infeasibility.
  auto& var = vars_[check_var(v)];
  var.lo = lo;
  var.up = up;
}

double LpModel::objective_value(const std::vector<double>& x) const {
  WIMESH_ASSERT(x.size() == vars_.size());
  double obj = 0.0;
  for (std::size_t j = 0; j < vars_.size(); ++j) obj += vars_[j].obj * x[j];
  return obj;
}

double LpModel::max_violation(const std::vector<double>& x) const {
  WIMESH_ASSERT(x.size() == vars_.size());
  double worst = 0.0;
  for (std::size_t j = 0; j < vars_.size(); ++j) {
    worst = std::max(worst, vars_[j].lo - x[j]);
    worst = std::max(worst, x[j] - vars_[j].up);
  }
  for (const Row& row : rows_) {
    double lhs = 0.0;
    for (const LpTerm& t : row.terms) {
      lhs += t.coef * x[static_cast<std::size_t>(t.var)];
    }
    switch (row.sense) {
      case RowSense::kLessEqual:
        worst = std::max(worst, lhs - row.rhs);
        break;
      case RowSense::kGreaterEqual:
        worst = std::max(worst, row.rhs - lhs);
        break;
      case RowSense::kEqual:
        worst = std::max(worst, std::abs(lhs - row.rhs));
        break;
    }
  }
  return worst;
}

namespace {

// Dense two-phase primal simplex with general (possibly infinite) variable
// bounds. Column layout: [structural | slack (one per row) | artificial
// (one per row)]. The full tableau T = B^-1 * A is maintained explicitly;
// per-pivot cost is O(rows * cols), which is fine at the scale of the
// scheduling ILP relaxations this repo solves (hundreds of rows).
class Simplex {
 public:
  Simplex(const LpModel& model, const LpOptions& opt)
      : model_(model), opt_(opt) {}

  LpResult run(const LpBasis* warm, LpBasis* basis_out);

 private:
  enum class Status : std::uint8_t { kBasic, kAtLower, kAtUpper, kFreeZero };

  // Outcome of the dual-simplex repair pass used by warm starts.
  enum class DualOutcome { kFeasible, kInfeasible, kIterationLimit, kStalled };

  struct Pick {
    int col = -1;
    int dir = 0;  // +1: increase entering var, -1: decrease
  };

  std::size_t idx(int i) const { return static_cast<std::size_t>(i); }
  double& t_at(int r, int c) { return tab_[idx(r) * idx(cols_) + idx(c)]; }
  double t_at(int r, int c) const {
    return tab_[idx(r) * idx(cols_) + idx(c)];
  }

  void build();
  void install_phase1_costs();
  void install_phase2_costs();
  void recompute_reduced_costs();
  double nonbasic_value(int j) const;
  Pick choose_entering(bool bland) const;
  // Returns false on unboundedness.
  bool step(const Pick& pick, bool* progressed);
  // Gauss-Jordan elimination around pivot (leave_row, q). `update_rhs`
  // applies the same row operations to xb_ (used while installing a warm
  // basis, where xb_ is the literal rhs column); `update_costs` keeps the
  // reduced costs in sync (used by primal/dual iterations, which maintain
  // xb_ incrementally instead).
  void pivot_tableau(int leave_row, int q, bool update_rhs, bool update_costs);
  bool install_warm(const LpBasis& hint);
  bool primal_feasible() const;
  bool dual_feasible() const;
  DualOutcome run_dual();
  double basic_objective() const;
  void extract_solution(LpResult* out) const;
  void extract_basis(LpBasis* out) const;

  const LpModel& model_;
  const LpOptions& opt_;

  int n_ = 0;      // structural variables
  int m_ = 0;      // rows
  int cols_ = 0;   // n + 2m
  std::vector<double> tab_;     // m x cols, row-major: B^-1 * A
  std::vector<double> dcost_;   // reduced costs, length cols
  std::vector<double> cost_;    // current phase objective coefficients
  std::vector<double> lo_, up_;
  std::vector<Status> status_;
  std::vector<int> basis_;      // basis_[r] = column basic in row r
  std::vector<double> xb_;      // values of basic variables by row
  long iters_ = 0;
  bool phase1_ = true;
};

void Simplex::build() {
  n_ = model_.variable_count();
  m_ = model_.constraint_count();
  cols_ = n_ + 2 * m_;
  tab_.assign(idx(m_) * idx(cols_), 0.0);
  lo_.assign(idx(cols_), 0.0);
  up_.assign(idx(cols_), kLpInfinity);
  status_.assign(idx(cols_), Status::kAtLower);

  for (int j = 0; j < n_; ++j) {
    lo_[idx(j)] = model_.lower_bound(j);
    up_[idx(j)] = model_.upper_bound(j);
    if (lo_[idx(j)] > -kLpInfinity) {
      status_[idx(j)] = Status::kAtLower;
    } else if (up_[idx(j)] < kLpInfinity) {
      status_[idx(j)] = Status::kAtUpper;
    } else {
      status_[idx(j)] = Status::kFreeZero;
    }
  }
  // Slack for row r is column n_+r: row becomes  a'x + s = rhs.
  for (int r = 0; r < m_; ++r) {
    const int s = n_ + r;
    switch (model_.row(r).sense) {
      case RowSense::kLessEqual:
        lo_[idx(s)] = 0.0;
        up_[idx(s)] = kLpInfinity;
        break;
      case RowSense::kGreaterEqual:
        lo_[idx(s)] = -kLpInfinity;
        up_[idx(s)] = 0.0;
        status_[idx(s)] = Status::kAtUpper;
        break;
      case RowSense::kEqual:
        lo_[idx(s)] = up_[idx(s)] = 0.0;
        break;
    }
  }

  // Fill structural + slack coefficients, then pick artificial signs so the
  // initial basis (the artificials) is feasible: value = |residual|.
  for (int r = 0; r < m_; ++r) {
    for (const LpTerm& t : model_.row(r).terms) t_at(r, t.var) += t.coef;
    t_at(r, n_ + r) = 1.0;
  }
  basis_.assign(idx(m_), -1);
  xb_.assign(idx(m_), 0.0);
  for (int r = 0; r < m_; ++r) {
    double residual = model_.row(r).rhs;
    for (int j = 0; j < n_ + m_; ++j) {
      if (t_at(r, j) != 0.0) residual -= t_at(r, j) * nonbasic_value(j);
    }
    const int a = n_ + m_ + r;
    lo_[idx(a)] = 0.0;
    up_[idx(a)] = kLpInfinity;
    const double sign = residual < 0.0 ? -1.0 : 1.0;
    t_at(r, a) = sign;
    if (sign < 0.0) {
      // Normalize so the basic (artificial) column is +1 in its row.
      for (int j = 0; j < cols_; ++j) t_at(r, j) = -t_at(r, j);
    }
    basis_[idx(r)] = a;
    status_[idx(a)] = Status::kBasic;
    xb_[idx(r)] = std::abs(residual);
  }
}

double Simplex::nonbasic_value(int j) const {
  switch (status_[idx(j)]) {
    case Status::kAtLower: return lo_[idx(j)];
    case Status::kAtUpper: return up_[idx(j)];
    case Status::kFreeZero: return 0.0;
    case Status::kBasic: break;
  }
  WIMESH_ASSERT_MSG(false, "nonbasic_value called on basic variable");
  return 0.0;
}

void Simplex::install_phase1_costs() {
  cost_.assign(idx(cols_), 0.0);
  for (int r = 0; r < m_; ++r) cost_[idx(n_ + m_ + r)] = 1.0;
  recompute_reduced_costs();
}

void Simplex::install_phase2_costs() {
  cost_.assign(idx(cols_), 0.0);
  const double sense =
      model_.objective_sense() == ObjSense::kMinimize ? 1.0 : -1.0;
  for (int j = 0; j < n_; ++j) cost_[idx(j)] = sense * model_.objective_coef(j);
  // Artificials are pinned to zero for phase 2 so they can never re-enter
  // with a nonzero value.
  for (int r = 0; r < m_; ++r) {
    const int a = n_ + m_ + r;
    up_[idx(a)] = 0.0;
    if (status_[idx(a)] == Status::kAtUpper) status_[idx(a)] = Status::kAtLower;
  }
  recompute_reduced_costs();
}

void Simplex::recompute_reduced_costs() {
  // d_j = c_j - c_B' (B^-1 a_j); the tableau already holds B^-1 a_j.
  dcost_.assign(idx(cols_), 0.0);
  for (int j = 0; j < cols_; ++j) dcost_[idx(j)] = cost_[idx(j)];
  for (int r = 0; r < m_; ++r) {
    const double cb = cost_[idx(basis_[idx(r)])];
    if (cb == 0.0) continue;
    for (int j = 0; j < cols_; ++j) dcost_[idx(j)] -= cb * t_at(r, j);
  }
  for (int r = 0; r < m_; ++r) dcost_[idx(basis_[idx(r)])] = 0.0;
}

Simplex::Pick Simplex::choose_entering(bool bland) const {
  Pick best;
  double best_score = opt_.optimality_tol;
  for (int j = 0; j < cols_; ++j) {
    const Status st = status_[idx(j)];
    if (st == Status::kBasic) continue;
    if (lo_[idx(j)] == up_[idx(j)]) continue;  // fixed, cannot move
    const double d = dcost_[idx(j)];
    int dir = 0;
    if ((st == Status::kAtLower || st == Status::kFreeZero) &&
        d < -opt_.optimality_tol) {
      dir = +1;
    } else if ((st == Status::kAtUpper || st == Status::kFreeZero) &&
               d > opt_.optimality_tol) {
      dir = -1;
    }
    if (dir == 0) continue;
    if (bland) return Pick{j, dir};  // first eligible index
    const double score = std::abs(d);
    if (score > best_score) {
      best_score = score;
      best = Pick{j, dir};
    }
  }
  return best;
}

bool Simplex::step(const Pick& pick, bool* progressed) {
  const int q = pick.col;
  const double dir = pick.dir;

  // Maximum movement before the entering variable hits its own far bound.
  double t_limit = kLpInfinity;
  int leave_row = -1;
  double leave_to_upper = false;
  if (lo_[idx(q)] > -kLpInfinity && up_[idx(q)] < kLpInfinity) {
    t_limit = up_[idx(q)] - lo_[idx(q)];
  }

  // Ratio test: basic variable values move by -dir * t * w_r.
  // Two passes (Harris-style): find the tightest ratio, then among rows
  // within tolerance of it choose the one with the largest pivot magnitude.
  const double tol = opt_.feasibility_tol;
  double t_min = t_limit;
  for (int r = 0; r < m_; ++r) {
    const double w = t_at(r, q);
    const double delta = -dir * w;
    if (std::abs(w) < 1e-11) continue;
    const int b = basis_[idx(r)];
    if (delta < 0.0 && lo_[idx(b)] > -kLpInfinity) {
      t_min = std::min(t_min, (xb_[idx(r)] - lo_[idx(b)] + tol) / -delta);
    } else if (delta > 0.0 && up_[idx(b)] < kLpInfinity) {
      t_min = std::min(t_min, (up_[idx(b)] - xb_[idx(r)] + tol) / delta);
    }
  }
  if (t_min == kLpInfinity) return false;  // unbounded direction

  double best_pivot = 0.0;
  double t_leave = 0.0;
  for (int r = 0; r < m_; ++r) {
    const double w = t_at(r, q);
    const double delta = -dir * w;
    if (std::abs(w) < 1e-11) continue;
    const int b = basis_[idx(r)];
    double t_r;
    bool to_upper;
    if (delta < 0.0 && lo_[idx(b)] > -kLpInfinity) {
      t_r = (xb_[idx(r)] - lo_[idx(b)]) / -delta;
      to_upper = false;
    } else if (delta > 0.0 && up_[idx(b)] < kLpInfinity) {
      t_r = (up_[idx(b)] - xb_[idx(r)]) / delta;
      to_upper = true;
    } else {
      continue;
    }
    if (t_r <= t_min && std::abs(w) > best_pivot) {
      best_pivot = std::abs(w);
      leave_row = r;
      t_leave = std::max(t_r, 0.0);
      leave_to_upper = to_upper;
    }
  }

  const double t =
      leave_row >= 0 ? std::min(t_leave, t_limit) : std::min(t_min, t_limit);
  *progressed = t > tol;

  // Apply the movement to the basic values.
  for (int r = 0; r < m_; ++r) {
    const double w = t_at(r, q);
    if (w != 0.0) xb_[idx(r)] -= dir * t * w;
  }

  if (leave_row < 0 || (t_limit <= t_leave && t_limit < kLpInfinity)) {
    // Bound flip: the entering variable traverses to its opposite bound.
    status_[idx(q)] =
        dir > 0 ? Status::kAtUpper : Status::kAtLower;
    return true;
  }

  // Pivot: q enters the basis in leave_row, the old basic leaves at the
  // bound the ratio test hit.
  const int leaving = basis_[idx(leave_row)];
  status_[idx(leaving)] =
      leave_to_upper ? Status::kAtUpper : Status::kAtLower;
  const double entering_value = nonbasic_value(q) + pick.dir * t;
  basis_[idx(leave_row)] = q;
  status_[idx(q)] = Status::kBasic;
  xb_[idx(leave_row)] = entering_value;
  // Clamp the leaving variable exactly onto its bound (it can be off by the
  // ratio-test tolerance).
  // (Value is implicit in its status; nothing stored.)

  // Gauss-Jordan update of the tableau and reduced costs around (r, q).
  pivot_tableau(leave_row, q, /*update_rhs=*/false, /*update_costs=*/true);
  return true;
}

// The row reduction below is where the solver spends nearly all its time,
// and its speed depends on where its loops fall relative to 64-byte
// boundaries: on an Intel Xeon VM (gcc 12, -O2), moving the function by 48
// bytes made cold ILP plans about 28% slower. Aligning the function to a
// cache line keeps its layout independent of the code linked before it.
[[gnu::aligned(64)]] void Simplex::pivot_tableau(int leave_row, int q,
                                                 bool update_rhs,
                                                 bool update_costs) {
  const double piv = t_at(leave_row, q);
  WIMESH_ASSERT_MSG(std::abs(piv) > 1e-12, "numerically singular pivot");
  const double inv = 1.0 / piv;
  for (int j = 0; j < cols_; ++j) t_at(leave_row, j) *= inv;
  if (update_rhs) xb_[idx(leave_row)] *= inv;
  for (int r = 0; r < m_; ++r) {
    if (r == leave_row) continue;
    const double f = t_at(r, q);
    if (f == 0.0) continue;
    for (int j = 0; j < cols_; ++j) t_at(r, j) -= f * t_at(leave_row, j);
    t_at(r, q) = 0.0;  // exact zero, avoids drift
    if (update_rhs) xb_[idx(r)] -= f * xb_[idx(leave_row)];
  }
  if (update_costs) {
    const double fd = dcost_[idx(q)];
    if (fd != 0.0) {
      for (int j = 0; j < cols_; ++j) {
        dcost_[idx(j)] -= fd * t_at(leave_row, j);
      }
    }
    dcost_[idx(q)] = 0.0;
  }
}

bool Simplex::install_warm(const LpBasis& hint) {
  const int nm = n_ + m_;
  if (static_cast<int>(hint.status.size()) != nm) return false;
  if (static_cast<int>(hint.basic.size()) != m_) return false;
  std::vector<char> hint_basic(idx(nm), 0);
  for (std::int32_t q : hint.basic) {
    if (q < 0 || q >= nm) return false;
    if (hint_basic[idx(q)] != 0) return false;
    if (hint.status[idx(q)] != LpVarStatus::kBasic) return false;
    hint_basic[idx(q)] = 1;
  }

  // Move every hint-nonbasic column onto its hinted bound, clamped to the
  // CURRENT bounds (the hint may come from a model with different bounds,
  // e.g. the branch & bound parent). xb_ is kept consistent as the rhs
  // column B^-1 (b - N x_N) throughout.
  for (int j = 0; j < nm; ++j) {
    if (hint_basic[idx(j)] != 0) continue;
    const bool has_lo = lo_[idx(j)] > -kLpInfinity;
    const bool has_up = up_[idx(j)] < kLpInfinity;
    Status want;
    switch (hint.status[idx(j)]) {
      case LpVarStatus::kAtUpper:
        want = has_up ? Status::kAtUpper
                      : (has_lo ? Status::kAtLower : Status::kFreeZero);
        break;
      case LpVarStatus::kFree:
        want = (!has_lo && !has_up)
                   ? Status::kFreeZero
                   : (has_lo ? Status::kAtLower : Status::kAtUpper);
        break;
      case LpVarStatus::kAtLower:
      case LpVarStatus::kBasic:  // unreachable (validated above)
      default:
        want = has_lo ? Status::kAtLower
                      : (has_up ? Status::kAtUpper : Status::kFreeZero);
        break;
    }
    if (want == status_[idx(j)]) continue;
    const double old_val = nonbasic_value(j);
    status_[idx(j)] = want;
    const double delta = nonbasic_value(j) - old_val;
    if (delta == 0.0) continue;
    for (int r = 0; r < m_; ++r) {
      const double w = t_at(r, j);
      if (w != 0.0) xb_[idx(r)] -= w * delta;
    }
  }

  // Pivot the hinted columns into the basis, displacing one artificial per
  // pivot. Row choice is the largest available pivot magnitude; a column
  // with no usable pivot means the hinted basis is singular under the new
  // coefficients, and the caller cold-starts instead.
  for (std::int32_t q : hint.basic) {
    const double val_q = nonbasic_value(q);
    if (val_q != 0.0) {
      // Remove q's nonbasic contribution before it enters the basis.
      for (int r = 0; r < m_; ++r) {
        const double w = t_at(r, q);
        if (w != 0.0) xb_[idx(r)] += w * val_q;
      }
    }
    int best_row = -1;
    double best_piv = 1e-7;
    for (int r = 0; r < m_; ++r) {
      if (basis_[idx(r)] < nm) continue;  // row already claimed by a hint col
      const double w = std::abs(t_at(r, q));
      if (w > best_piv) {
        best_piv = w;
        best_row = r;
      }
    }
    if (best_row < 0) return false;
    const int leaving = basis_[idx(best_row)];
    pivot_tableau(best_row, q, /*update_rhs=*/true, /*update_costs=*/false);
    basis_[idx(best_row)] = q;
    status_[idx(q)] = Status::kBasic;
    status_[idx(leaving)] = Status::kAtLower;  // artificial back to zero
  }
  return true;
}

bool Simplex::primal_feasible() const {
  const double tol = opt_.feasibility_tol;
  for (int r = 0; r < m_; ++r) {
    const int b = basis_[idx(r)];
    const double v = xb_[idx(r)];
    if (v < lo_[idx(b)] - tol || v > up_[idx(b)] + tol) return false;
  }
  return true;
}

bool Simplex::dual_feasible() const {
  const double tol = opt_.optimality_tol;
  for (int j = 0; j < cols_; ++j) {
    const Status st = status_[idx(j)];
    if (st == Status::kBasic) continue;
    if (lo_[idx(j)] == up_[idx(j)]) continue;  // fixed, any sign is fine
    const double d = dcost_[idx(j)];
    if (st == Status::kAtLower && d < -tol) return false;
    if (st == Status::kAtUpper && d > tol) return false;
    if (st == Status::kFreeZero && std::abs(d) > tol) return false;
  }
  return true;
}

Simplex::DualOutcome Simplex::run_dual() {
  const double ftol = opt_.feasibility_tol;
  int stall = 0;
  const int stall_threshold = 2 * (m_ + cols_) + 64;
  for (;;) {
    if (iters_ >= opt_.max_iterations) return DualOutcome::kIterationLimit;

    // Leaving row: the basic variable with the worst bound violation.
    int leave_row = -1;
    double worst = ftol;
    bool below = false;
    for (int r = 0; r < m_; ++r) {
      const int b = basis_[idx(r)];
      const double v = xb_[idx(r)];
      if (lo_[idx(b)] - v > worst) {
        worst = lo_[idx(b)] - v;
        leave_row = r;
        below = true;
      }
      if (v - up_[idx(b)] > worst) {
        worst = v - up_[idx(b)];
        leave_row = r;
        below = false;
      }
    }
    if (leave_row < 0) return DualOutcome::kFeasible;

    // Entering column: dual ratio test — the column whose reduced cost
    // reaches zero first keeps the basis dual feasible. Movement of the
    // violated basic is -alpha * d(x_j), so eligibility depends on the
    // direction x_j can move off its bound and the sign of alpha.
    int q = -1;
    double best_ratio = kLpInfinity;
    double best_alpha = 0.0;
    for (int j = 0; j < cols_; ++j) {
      const Status st = status_[idx(j)];
      if (st == Status::kBasic) continue;
      if (lo_[idx(j)] == up_[idx(j)]) continue;
      const double alpha = t_at(leave_row, j);
      if (std::abs(alpha) < 1e-9) continue;
      bool eligible;
      if (below) {
        eligible = ((st == Status::kAtLower || st == Status::kFreeZero) &&
                    alpha < 0.0) ||
                   ((st == Status::kAtUpper || st == Status::kFreeZero) &&
                    alpha > 0.0);
      } else {
        eligible = ((st == Status::kAtLower || st == Status::kFreeZero) &&
                    alpha > 0.0) ||
                   ((st == Status::kAtUpper || st == Status::kFreeZero) &&
                    alpha < 0.0);
      }
      if (!eligible) continue;
      const double ratio = std::abs(dcost_[idx(j)]) / std::abs(alpha);
      if (ratio < best_ratio - 1e-12 ||
          (ratio <= best_ratio + 1e-12 &&
           std::abs(alpha) > std::abs(best_alpha))) {
        best_ratio = ratio;
        q = j;
        best_alpha = alpha;
      }
    }
    // No column can absorb the violation: the violated row is a Farkas
    // certificate of primal infeasibility.
    if (q < 0) return DualOutcome::kInfeasible;

    const int leaving = basis_[idx(leave_row)];
    const double target = below ? lo_[idx(leaving)] : up_[idx(leaving)];
    const double dt = (xb_[idx(leave_row)] - target) / t_at(leave_row, q);
    for (int r = 0; r < m_; ++r) {
      const double w = t_at(r, q);
      if (w != 0.0) xb_[idx(r)] -= w * dt;
    }
    const double entering_value = nonbasic_value(q) + dt;
    status_[idx(leaving)] = below ? Status::kAtLower : Status::kAtUpper;
    basis_[idx(leave_row)] = q;
    status_[idx(q)] = Status::kBasic;
    xb_[idx(leave_row)] = entering_value;
    pivot_tableau(leave_row, q, /*update_rhs=*/false, /*update_costs=*/true);
    ++iters_;
    stall = std::abs(dt) > ftol ? 0 : stall + 1;
    if (stall > stall_threshold) return DualOutcome::kStalled;
  }
}

double Simplex::basic_objective() const {
  double obj = 0.0;
  for (int r = 0; r < m_; ++r) {
    obj += cost_[idx(basis_[idx(r)])] * xb_[idx(r)];
  }
  for (int j = 0; j < cols_; ++j) {
    if (status_[idx(j)] != Status::kBasic && cost_[idx(j)] != 0.0) {
      obj += cost_[idx(j)] * nonbasic_value(j);
    }
  }
  return obj;
}

void Simplex::extract_solution(LpResult* out) const {
  out->x.assign(idx(n_), 0.0);
  for (int j = 0; j < n_; ++j) {
    if (status_[idx(j)] != Status::kBasic) out->x[idx(j)] = nonbasic_value(j);
  }
  for (int r = 0; r < m_; ++r) {
    if (basis_[idx(r)] < n_) {
      double v = xb_[idx(r)];
      // Snap to bounds within tolerance so callers see clean values.
      const double lo = lo_[idx(basis_[idx(r)])];
      const double up = up_[idx(basis_[idx(r)])];
      if (v < lo) v = lo;
      if (v > up) v = up;
      out->x[idx(basis_[idx(r)])] = v;
    }
  }
  out->objective = model_.objective_value(out->x);
}

void Simplex::extract_basis(LpBasis* out) const {
  if (out == nullptr) return;
  out->status.clear();
  out->basic.clear();
  for (int r = 0; r < m_; ++r) {
    // An artificial still basic (redundant equality row) has no slot in the
    // exported basis; leave it empty rather than export a partial one.
    if (basis_[idx(r)] >= n_ + m_) return;
  }
  out->status.assign(idx(n_ + m_), LpVarStatus::kAtLower);
  out->basic.assign(idx(m_), -1);
  for (int j = 0; j < n_ + m_; ++j) {
    switch (status_[idx(j)]) {
      case Status::kBasic:
        out->status[idx(j)] = LpVarStatus::kBasic;
        break;
      case Status::kAtLower:
        out->status[idx(j)] = LpVarStatus::kAtLower;
        break;
      case Status::kAtUpper:
        out->status[idx(j)] = LpVarStatus::kAtUpper;
        break;
      case Status::kFreeZero:
        out->status[idx(j)] = LpVarStatus::kFree;
        break;
    }
  }
  for (int r = 0; r < m_; ++r) {
    out->basic[idx(r)] = static_cast<std::int32_t>(basis_[idx(r)]);
  }
}

LpResult Simplex::run(const LpBasis* warm, LpBasis* basis_out) {
  LpResult result;

  // Empty domains (from branch & bound) mean immediate infeasibility.
  for (int j = 0; j < model_.variable_count(); ++j) {
    if (model_.lower_bound(j) > model_.upper_bound(j)) {
      result.status = LpStatus::kInfeasible;
      return result;
    }
  }

  // Warm path: install the hinted basis; enter phase 2 directly when it is
  // primal feasible, repair with dual simplex when it is dual feasible, and
  // otherwise fall back to an ordinary cold start.
  bool warm_ready = false;
  if (warm != nullptr && !warm->empty()) {
    build();
    if (install_warm(*warm)) {
      install_phase2_costs();
      if (primal_feasible()) {
        warm_ready = true;
      } else if (dual_feasible()) {
        switch (run_dual()) {
          case DualOutcome::kFeasible:
            warm_ready = true;
            break;
          case DualOutcome::kInfeasible:
            result.status = LpStatus::kInfeasible;
            result.iterations = iters_;
            result.warm_start_used = true;
            return result;
          case DualOutcome::kIterationLimit:
            result.status = LpStatus::kIterationLimit;
            result.iterations = iters_;
            result.warm_start_used = true;
            return result;
          case DualOutcome::kStalled:
            break;  // numerically stuck: cold start below
        }
      }
    }
  }

  if (warm_ready) {
    result.warm_start_used = true;
    phase1_ = false;
  } else {
    build();
    install_phase1_costs();
    phase1_ = true;
  }

  // A pivot that moves nothing is degenerate; long degenerate runs switch
  // to Bland's rule, which guarantees termination.
  int degenerate_run = 0;
  const int bland_threshold = 2 * (m_ + cols_) + 64;

  for (;;) {
    if (iters_ >= opt_.max_iterations) {
      result.status = LpStatus::kIterationLimit;
      result.iterations = iters_;
      return result;
    }
    const Pick pick = choose_entering(degenerate_run > bland_threshold);
    if (pick.col < 0) {
      // Phase optimum reached.
      if (phase1_) {
        if (basic_objective() > 1e-6) {
          result.status = LpStatus::kInfeasible;
          result.iterations = iters_;
          return result;
        }
        phase1_ = false;
        install_phase2_costs();
        degenerate_run = 0;
        continue;
      }
      result.status = LpStatus::kOptimal;
      result.iterations = iters_;
      extract_solution(&result);
      extract_basis(basis_out);
      return result;
    }
    bool progressed = false;
    if (!step(pick, &progressed)) {
      // Unbounded can only legitimately happen in phase 2.
      WIMESH_ASSERT_MSG(!phase1_, "phase-1 objective cannot be unbounded");
      result.status = LpStatus::kUnbounded;
      result.iterations = iters_;
      return result;
    }
    ++iters_;
    degenerate_run = progressed ? 0 : degenerate_run + 1;
  }
}

}  // namespace

LpResult solve_lp(const LpModel& model, const LpOptions& options) {
  return solve_lp(model, options, nullptr, nullptr);
}

LpResult solve_lp(const LpModel& model, const LpOptions& options,
                  const LpBasis* warm_start, LpBasis* basis_out) {
  if (basis_out != nullptr) {
    basis_out->status.clear();
    basis_out->basic.clear();
  }
  Simplex simplex(model, options);
  return simplex.run(warm_start, basis_out);
}

}  // namespace wimesh
