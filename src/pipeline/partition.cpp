#include "src/pipeline/partition.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

#include "src/graph/graph.h"
#include "src/pipeline/cost_model.h"

namespace pipemare::pipeline {

std::string partition_strategy_name(PartitionStrategy s) {
  switch (s) {
    case PartitionStrategy::Uniform: return "uniform";
    case PartitionStrategy::Balanced: return "balanced";
  }
  return "?";
}

double balance_ratio(std::span<const double> stage_costs) {
  if (stage_costs.empty()) return 1.0;
  double max_cost = 0.0;
  double total = 0.0;
  for (double c : stage_costs) {
    max_cost = std::max(max_cost, c);
    total += c;
  }
  double mean = total / static_cast<double>(stage_costs.size());
  return mean > 0.0 ? max_cost / mean : 1.0;
}

double Partition::balance_ratio() const { return pipeline::balance_ratio(stage_cost); }

namespace {

/// Fills everything derived from `unit_stage`: per-stage parameter and
/// cost totals plus the module -> stage map.
void finish_partition(const nn::Model& model, Partition& part) {
  auto u = static_cast<int>(part.units.size());
  part.stage_param_count.assign(static_cast<std::size_t>(part.num_stages), 0);
  part.stage_cost.assign(static_cast<std::size_t>(part.num_stages), 0.0);
  for (int i = 0; i < u; ++i) {
    auto idx = static_cast<std::size_t>(i);
    auto stage = static_cast<std::size_t>(part.unit_stage[idx]);
    part.stage_param_count[stage] += part.units[idx].size;
    part.total_params += part.units[idx].size;
    part.stage_cost[stage] += part.unit_cost[idx];
  }
  // Module -> stage: stage of the module's first unit; parameter-free
  // modules ride with the latest stage seen so far (stage 0 before any
  // weights appear).
  part.module_stage.assign(static_cast<std::size_t>(model.num_modules()), 0);
  int unit_idx = 0;
  int current_stage = 0;
  for (int m = 0; m < model.num_modules(); ++m) {
    if (unit_idx < u && part.units[static_cast<std::size_t>(unit_idx)].module == m) {
      current_stage = part.unit_stage[static_cast<std::size_t>(unit_idx)];
      while (unit_idx < u && part.units[static_cast<std::size_t>(unit_idx)].module == m) {
        ++unit_idx;
      }
    }
    part.module_stage[static_cast<std::size_t>(m)] = current_stage;
  }
}

/// The partitioner's unit enumeration: lower the model to the op graph
/// and take the weight units in its linearized execution order. The
/// executors (forward_range in module-index order) additionally require
/// the linearization to be the identity — true for every model appended
/// in topological order, and enforced here so a hypothetical non-identity
/// lowering fails loudly instead of silently misassigning staleness.
std::vector<nn::WeightUnit> partition_units(const nn::Model& model, bool split_bias) {
  graph::Graph g = graph::Graph::lower(model);
  if (!g.linearization_is_identity()) {
    throw std::invalid_argument(
        "make_partition: the model's graph linearization is not the module "
        "order; the executors run modules in index order, so modules must be "
        "added topologically");
  }
  return graph::linearized_weight_units(g, model, split_bias);
}

Partition start_partition(const nn::Model& model, int num_stages, bool split_bias) {
  Partition part;
  part.units = partition_units(model, split_bias);
  part.split_bias = split_bias;
  auto u = static_cast<int>(part.units.size());
  if (u == 0) throw std::invalid_argument("make_partition: model has no weights");
  if (num_stages < 1 || num_stages > u) {
    throw std::invalid_argument("make_partition: need 1 <= stages <= weight units (" +
                                std::to_string(u) + ")");
  }
  part.num_stages = num_stages;
  return part;
}

}  // namespace

Partition make_partition(const nn::Model& model, int num_stages, bool split_bias) {
  Partition part = start_partition(model, num_stages, split_bias);
  auto u = static_cast<int>(part.units.size());
  part.unit_stage.resize(static_cast<std::size_t>(u));
  part.unit_cost.assign(static_cast<std::size_t>(u), 1.0);
  for (int i = 0; i < u; ++i) {
    // Even contiguous split: unit i goes to stage floor(i * P / U).
    int stage = static_cast<int>((static_cast<std::int64_t>(i) * num_stages) / u);
    part.unit_stage[static_cast<std::size_t>(i)] = stage;
  }
  finish_partition(model, part);
  return part;
}

std::vector<int> balanced_contiguous_split(std::span<const double> costs,
                                           int num_stages) {
  auto u = static_cast<int>(costs.size());
  if (u == 0) throw std::invalid_argument("balanced_contiguous_split: no units");
  if (num_stages < 1 || num_stages > u) {
    throw std::invalid_argument(
        "balanced_contiguous_split: need 1 <= stages <= units (" + std::to_string(u) +
        ")");
  }
  // prefix[i] = cost of units [0, i).
  std::vector<double> prefix(static_cast<std::size_t>(u) + 1, 0.0);
  for (int i = 0; i < u; ++i) {
    prefix[static_cast<std::size_t>(i) + 1] =
        prefix[static_cast<std::size_t>(i)] + std::max(0.0, costs[static_cast<std::size_t>(i)]);
  }
  auto range_cost = [&](int lo, int hi) {  // units [lo, hi)
    return prefix[static_cast<std::size_t>(hi)] - prefix[static_cast<std::size_t>(lo)];
  };

  // Linear-partition DP: best[g][i] = cheapest max-stage-cost of packing
  // units [0, i) into g+1 non-empty contiguous groups. O(P * U^2) — unit
  // counts are small (hundreds at most), so no need for the binary-search
  // formulation.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const auto us = static_cast<std::size_t>(u);
  const auto ps = static_cast<std::size_t>(num_stages);
  std::vector<std::vector<double>> best(ps, std::vector<double>(us + 1, kInf));
  std::vector<std::vector<int>> cut(ps, std::vector<int>(us + 1, 0));
  for (int i = 1; i <= u; ++i) {
    best[0][static_cast<std::size_t>(i)] = range_cost(0, i);
  }
  for (int g = 1; g < num_stages; ++g) {
    auto gs = static_cast<std::size_t>(g);
    for (int i = g + 1; i <= u; ++i) {
      // Last group is [j, i); earlier groups need at least g units.
      for (int j = g; j < i; ++j) {
        double cand = std::max(best[gs - 1][static_cast<std::size_t>(j)], range_cost(j, i));
        // Strict < keeps the earliest feasible cut on ties, making the
        // split deterministic and front-loading slack to early stages
        // (which also carry the largest pipeline delay tau).
        if (cand < best[gs][static_cast<std::size_t>(i)]) {
          best[gs][static_cast<std::size_t>(i)] = cand;
          cut[gs][static_cast<std::size_t>(i)] = j;
        }
      }
    }
  }

  std::vector<int> unit_stage(us, 0);
  int hi = u;
  for (int g = num_stages - 1; g >= 1; --g) {
    int lo = cut[static_cast<std::size_t>(g)][static_cast<std::size_t>(hi)];
    for (int i = lo; i < hi; ++i) unit_stage[static_cast<std::size_t>(i)] = g;
    hi = lo;
  }
  return unit_stage;
}

Partition make_partition(const nn::Model& model, int num_stages, bool split_bias,
                         std::span<const double> costs) {
  Partition part = start_partition(model, num_stages, split_bias);
  if (costs.size() != part.units.size()) {
    throw std::invalid_argument(
        "make_partition: cost vector size (" + std::to_string(costs.size()) +
        ") != weight units (" + std::to_string(part.units.size()) + ")");
  }
  part.strategy = PartitionStrategy::Balanced;
  part.unit_cost.assign(costs.begin(), costs.end());
  part.unit_stage = balanced_contiguous_split(costs, num_stages);
  finish_partition(model, part);
  return part;
}

Partition make_partition(const nn::Model& model, int num_stages, bool split_bias,
                         const PartitionSpec& spec) {
  if (spec.strategy == PartitionStrategy::Uniform) {
    return make_partition(model, num_stages, split_bias);
  }
  auto units = partition_units(model, split_bias);
  std::vector<double> costs = profile_unit_costs(model, units, spec);
  return make_partition(model, num_stages, split_bias, costs);
}

int max_stages(const nn::Model& model, bool split_bias) {
  return static_cast<int>(partition_units(model, split_bias).size());
}

std::vector<StageModuleRange> stage_module_ranges(const Partition& partition) {
  // module_stage and the units' module ids are both non-decreasing, so
  // each stage owns a contiguous slice of each.
  std::vector<StageModuleRange> ranges(static_cast<std::size_t>(partition.num_stages));
  for (int s = 0; s < partition.num_stages; ++s) {
    StageModuleRange& r = ranges[static_cast<std::size_t>(s)];
    auto mlo = std::lower_bound(partition.module_stage.begin(),
                                partition.module_stage.end(), s);
    auto mhi = std::upper_bound(partition.module_stage.begin(),
                                partition.module_stage.end(), s);
    r.module_first = static_cast<int>(mlo - partition.module_stage.begin());
    r.module_last = static_cast<int>(mhi - partition.module_stage.begin());
    auto unit_before = [](const nn::WeightUnit& u, int m) { return u.module < m; };
    r.unit_first = static_cast<int>(
        std::lower_bound(partition.units.begin(), partition.units.end(),
                         r.module_first, unit_before) -
        partition.units.begin());
    r.unit_last = static_cast<int>(
        std::lower_bound(partition.units.begin(), partition.units.end(),
                         r.module_last, unit_before) -
        partition.units.begin());
  }
  return ranges;
}

std::pair<std::int64_t, std::int64_t> unit_param_bounds(const Partition& partition,
                                                         int ufirst, int ulast) {
  if (ufirst >= ulast) return {0, 0};
  const nn::WeightUnit& first = partition.units[static_cast<std::size_t>(ufirst)];
  const nn::WeightUnit& last = partition.units[static_cast<std::size_t>(ulast - 1)];
  return {first.offset, last.offset + last.size};
}

void validate_partition_config(std::string_view backend, const nn::Model* model,
                               int num_stages, bool split_bias,
                               const PartitionSpec& spec) {
  const std::string prefix = "backend '" + std::string(backend) + "': ";
  if (num_stages < 1) {
    throw std::invalid_argument(prefix + "num_stages must be >= 1, got " +
                                std::to_string(num_stages));
  }
  if (spec.measured && spec.strategy != PartitionStrategy::Balanced) {
    throw std::invalid_argument(prefix +
                                "measured cost profiling applies to the 'balanced' "
                                "partition strategy only");
  }
  if (spec.measured && !spec.probe) {
    throw std::invalid_argument(prefix +
                                "partition='balanced,measured' needs a probe "
                                "microbatch (PartitionSpec::probe); core::train "
                                "supplies one automatically");
  }
  if (model != nullptr) {
    int limit = max_stages(*model, split_bias);
    if (limit == 0) {
      throw std::invalid_argument(prefix + "model has no weight units to partition");
    }
    if (num_stages > limit) {
      throw std::invalid_argument(
          prefix + "num_stages=" + std::to_string(num_stages) +
          " exceeds max_stages=" + std::to_string(limit) + " for this model (" +
          std::to_string(limit) + " weight units with split_bias=" +
          (split_bias ? "true" : "false") +
          "; one stage per weight unit is the finest granularity)");
    }
  }
}

}  // namespace pipemare::pipeline
