// Tensor kernel layer suite (tier1, also run under ASan/TSan and with
// PIPEMARE_KERNELS={naive,tiled} in CI): the KernelRegistry dispatch, the
// golden-value guarantee (tiled bitwise-equal to the naive oracle for
// every GEMM variant, epilogue, elementwise op and shape — including
// degenerate and non-tile-multiple sizes),
// the NaN-propagation regression for the removed zero-skip, the
// KernelCalibration micro-profile and its partitioner hookup, the CLI
// plumbing, and end-to-end bitwise curve parity sequential vs
// threaded_steal under tiled kernels.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include "src/core/backend.h"
#include "src/core/task.h"
#include "src/core/trainer.h"
#include "src/data/image_data.h"
#include "src/nn/activations.h"
#include "src/nn/linear.h"
#include "src/nn/model.h"
#include "src/nn/resnet.h"
#include "src/pipeline/cost_model.h"
#include "src/tensor/kernels/calibration.h"
#include "src/tensor/kernels/gemm_tiled.h"
#include "src/tensor/kernels/registry.h"
#include "src/tensor/ops.h"
#include "src/util/cli.h"
#include "src/util/rng.h"

namespace pipemare::tensor {
namespace {

using kernels::KernelCalibration;
using kernels::KernelKind;
using kernels::KernelRegistry;

/// Saves and restores the process-global kernel selection so tests can't
/// leak state into each other (the suite runs under both PIPEMARE_KERNELS
/// settings in CI; whatever the environment chose must survive).
class KernelStateGuard {
 public:
  KernelStateGuard() : kind_(KernelRegistry::kind()) {}
  ~KernelStateGuard() { KernelRegistry::set_kind(kind_); }

 private:
  KernelKind kind_;
};

Tensor random_tensor(std::vector<int> shape, util::Rng& rng) {
  Tensor t(std::move(shape));
  for (std::int64_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(rng.normal());
  }
  // Sprinkle exact zeros and negatives so the old zero-skip path and the
  // ReLU epilogue are both exercised.
  for (std::int64_t i = 0; i < t.size(); i += 7) t[i] = 0.0F;
  return t;
}

void expect_bitwise(const Tensor& a, const Tensor& b, const char* label) {
  ASSERT_EQ(a.shape(), b.shape()) << label;
  if (a.size() == 0) return;
  EXPECT_EQ(std::memcmp(a.data(), b.data(),
                        sizeof(float) * static_cast<std::size_t>(a.size())),
            0)
      << label;
}

/// Runs `op` under the naive oracle and under tiled, and asserts bitwise
/// identity of the results.
template <typename Op>
void expect_kinds_agree(Op&& op, const char* label) {
  KernelStateGuard guard;
  KernelRegistry::set_kind(KernelKind::naive);
  Tensor want = op();
  KernelRegistry::set_kind(KernelKind::tiled);
  Tensor got = op();
  expect_bitwise(want, got, label);
}

// ---------------------------------------------------------------------------
// Registry dispatch
// ---------------------------------------------------------------------------

TEST(KernelRegistry, ParseRoundTripsAndRejectsUnknown) {
  EXPECT_EQ(KernelRegistry::parse("naive"), KernelKind::naive);
  EXPECT_EQ(KernelRegistry::parse("tiled"), KernelKind::tiled);
  EXPECT_FALSE(KernelRegistry::parse("blas").has_value());
  EXPECT_FALSE(KernelRegistry::parse("").has_value());
  EXPECT_EQ(KernelRegistry::kind_name(KernelKind::naive), "naive");
  EXPECT_EQ(KernelRegistry::kind_name(KernelKind::tiled), "tiled");
}

TEST(KernelRegistry, SetKindSwitchesActiveTable) {
  KernelStateGuard guard;
  KernelRegistry::set_kind(KernelKind::naive);
  EXPECT_EQ(KernelRegistry::name(), "naive");
  EXPECT_STREQ(KernelRegistry::table().name, "naive");
  KernelRegistry::set_kind(KernelKind::tiled);
  EXPECT_EQ(KernelRegistry::name(), "tiled");
  EXPECT_STREQ(KernelRegistry::table().name, "tiled");
  // Specific-table queries are independent of the active kind.
  EXPECT_STREQ(KernelRegistry::table(KernelKind::naive).name, "naive");
}

TEST(KernelRegistry, TiledIsaIsConsistentWithDispatch) {
  // Whichever instantiation the runtime picked must be one of the two and
  // agree with the reported name.
  auto isa = KernelRegistry::tiled_isa();
  EXPECT_TRUE(isa == "avx2" || isa == "base") << isa;
  if (isa == "avx2") {
    EXPECT_EQ(kernels::tiled_fns(), kernels::tiled_fns_avx2());
  } else {
    EXPECT_EQ(kernels::tiled_fns(), kernels::tiled_fns_base());
  }
}

// ---------------------------------------------------------------------------
// Golden-value grid: tiled == naive, bitwise
// ---------------------------------------------------------------------------

TEST(KernelParity, GemmVariantsAcrossShapeGrid) {
  util::Rng rng(1234);
  // Degenerate (0, 1), sub-tile, non-tile-multiple, and multi-tile sizes:
  // the tile is 4x16, so 17/33 force edge kernels in both dimensions.
  const std::vector<int> dims = {0, 1, 3, 8, 17, 33};
  for (int m : dims) {
    for (int k : dims) {
      for (int n : dims) {
        Tensor a = random_tensor({m, k}, rng);
        Tensor at = random_tensor({k, m}, rng);
        Tensor b = random_tensor({k, n}, rng);
        Tensor bt = random_tensor({n, k}, rng);
        expect_kinds_agree([&] { return matmul(a, b); }, "matmul");
        expect_kinds_agree([&] { return matmul_tn(at, b); }, "matmul_tn");
        expect_kinds_agree([&] { return matmul_nt(a, bt); }, "matmul_nt");
      }
    }
  }
}

TEST(KernelParity, FusedEpiloguesMatchNaiveAndUnfused) {
  util::Rng rng(99);
  for (int m : {1, 2, 7, 8, 19, 40}) {
    for (int n : {1, 5, 16, 23}) {
      int k = 11;
      Tensor a = random_tensor({m, k}, rng);
      Tensor bt = random_tensor({n, k}, rng);
      std::vector<float> bias(static_cast<std::size_t>(n));
      for (auto& v : bias) v = static_cast<float>(rng.normal());
      std::span<const float> bs(bias);

      expect_kinds_agree([&] { return matmul_nt_bias(a, bt, bs); },
                         "matmul_nt_bias");

      // Fused must also equal the unfused sequence under BOTH kinds — the
      // nn::Linear adoption must not change any training curve.
      KernelStateGuard guard;
      for (KernelKind kind : {KernelKind::naive, KernelKind::tiled}) {
        KernelRegistry::set_kind(kind);
        Tensor unfused = matmul_nt(a, bt);
        add_row_inplace(unfused, bs);
        expect_bitwise(unfused, matmul_nt_bias(a, bt, bs),
                       "fused vs unfused bias");
      }
    }
  }
}

TEST(KernelParity, ElementwiseTransposeSoftmaxAgree) {
  util::Rng rng(7);
  for (auto [m, n] : std::vector<std::pair<int, int>>{
           {1, 1}, {3, 5}, {17, 33}, {64, 10}}) {
    Tensor a = random_tensor({m, n}, rng);
    Tensor b = random_tensor({m, n}, rng);
    std::vector<float> row(static_cast<std::size_t>(n));
    for (auto& v : row) v = static_cast<float>(rng.normal());

    expect_kinds_agree([&] { return transpose2d(a); }, "transpose2d");
    expect_kinds_agree([&] { return add(a, b); }, "add");
    expect_kinds_agree([&] { return sub(a, b); }, "sub");
    expect_kinds_agree([&] { return mul(a, b); }, "mul");
    expect_kinds_agree([&] { return scale(a, 1.372F); }, "scale");
    expect_kinds_agree([&] { return relu(a); }, "relu");
    expect_kinds_agree([&] { return relu_backward(b, a); }, "relu_backward");
    expect_kinds_agree([&] { return softmax_rows(a); }, "softmax_rows");
    expect_kinds_agree([&] { return log_softmax_rows(a); },
                       "log_softmax_rows");
    expect_kinds_agree(
        [&] {
          Tensor c = a;
          add_inplace(c, b, -0.25F);
          return c;
        },
        "add_inplace");
    expect_kinds_agree(
        [&] {
          Tensor c = a;
          add_row_inplace(c, std::span<const float>(row));
          return c;
        },
        "add_row_inplace");
  }
}

// ---------------------------------------------------------------------------
// NaN/Inf propagation (the removed zero-skip regression)
// ---------------------------------------------------------------------------

TEST(KernelNumerics, ZeroTimesInfPropagatesNaN) {
  // Old naive matmul skipped the whole B row when A held an exact zero, so
  // 0 * Inf quietly became 0 and a diverged run could look healthy. Both
  // backends must now produce NaN.
  const float inf = std::numeric_limits<float>::infinity();
  Tensor a({2, 2}, {1.0F, 0.0F,   // row 0: the zero multiplies the Inf row
                    0.5F, 2.0F});
  Tensor b({2, 2}, {3.0F, 1.0F,   //
                    inf, inf});
  Tensor at = transpose2d(a);
  KernelStateGuard guard;
  for (KernelKind kind : {KernelKind::naive, KernelKind::tiled}) {
    KernelRegistry::set_kind(kind);
    Tensor c = matmul(a, b);
    EXPECT_TRUE(std::isnan(c.at(0, 0))) << KernelRegistry::name();
    EXPECT_TRUE(std::isnan(c.at(0, 1))) << KernelRegistry::name();
    // Row 1 has no exact zero: Inf flows through as Inf.
    EXPECT_TRUE(std::isinf(c.at(1, 0))) << KernelRegistry::name();
    Tensor ctn = matmul_tn(at, b);
    EXPECT_TRUE(std::isnan(ctn.at(0, 0))) << KernelRegistry::name();
  }
}

// ---------------------------------------------------------------------------
// Calibration
// ---------------------------------------------------------------------------

TEST(KernelCalibrationTest, MeasuresPositiveRatesAndCaches) {
  auto naive = KernelCalibration::measure(KernelKind::naive);
  EXPECT_EQ(naive.kind, KernelKind::naive);
  EXPECT_GT(naive.gemm_flops_per_ns, 0.0);
  EXPECT_GT(naive.mem_bytes_per_ns, 0.0);

  const auto& first = KernelCalibration::active();
  const auto& second = KernelCalibration::active();
  EXPECT_EQ(&first, &second);  // cached, not re-measured
  EXPECT_EQ(first.kind, KernelRegistry::kind());

  // Roofline prediction: more work must never predict less time.
  EXPECT_GT(KernelCalibration::predict_ns(naive, 1e9, 0.0),
            KernelCalibration::predict_ns(naive, 1e6, 0.0));
  EXPECT_GT(KernelCalibration::predict_ns(naive, 1e6, 1e6),
            KernelCalibration::predict_ns(naive, 1e6, 0.0));
  EXPECT_EQ(KernelCalibration::predict_ns(naive, 0.0, 0.0), 0.0);
}

TEST(KernelCalibrationTest, CalibratedPartitionCostsAreUsable) {
  nn::Model model;
  model.add(std::make_unique<nn::Linear>(24, 48, /*relu_init=*/true));
  model.add(std::make_unique<nn::ReLU>());
  model.add(std::make_unique<nn::Linear>(48, 8));

  pipeline::PartitionSpec spec;
  spec.strategy = pipeline::PartitionStrategy::Balanced;
  spec.calibrated = true;
  auto costs = pipeline::profile_module_costs(model, spec);
  ASSERT_EQ(costs.size(), 3u);
  // Predicted nanoseconds: positive for the Linears, and the wider Linear
  // must stay costlier than the narrow one (calibration rescales, it must
  // not reorder same-kind modules).
  EXPECT_GT(costs[0].total_flops(), 0.0);
  EXPECT_GT(costs[2].total_flops(), 0.0);
  EXPECT_GT(costs[0].total_flops(), costs[2].total_flops());

  spec.measured = true;
  spec.probe = std::make_shared<const nn::Flow>();
  EXPECT_THROW(pipeline::profile_module_costs(model, spec),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// CLI plumbing
// ---------------------------------------------------------------------------

core::TrainerConfig parse_cli(std::vector<std::string> args) {
  std::vector<char*> argv;
  args.insert(args.begin(), "test");
  argv.reserve(args.size());
  for (auto& a : args) argv.push_back(a.data());
  util::Cli cli(static_cast<int>(argv.size()), argv.data());
  core::TrainerConfig cfg;
  core::parse_backend_cli(cli, cfg);
  return cfg;
}

TEST(KernelCli, KernelsFlagSelectsBackendGlobally) {
  KernelStateGuard guard;
  (void)parse_cli({"--kernels=naive"});
  EXPECT_EQ(KernelRegistry::kind(), KernelKind::naive);
  (void)parse_cli({"--kernels=tiled"});
  EXPECT_EQ(KernelRegistry::kind(), KernelKind::tiled);
  EXPECT_THROW((void)parse_cli({"--kernel-lanes=2"}), std::invalid_argument);
  EXPECT_THROW((void)parse_cli({"--kernels=blas"}), std::invalid_argument);
}

TEST(KernelCli, PartitionGrammarAcceptsCalibrated) {
  auto cfg = parse_cli({"--partition=balanced,calibrated"});
  EXPECT_EQ(cfg.engine.partition.strategy, pipeline::PartitionStrategy::Balanced);
  EXPECT_TRUE(cfg.engine.partition.calibrated);
  EXPECT_FALSE(cfg.engine.partition.measured);

  cfg = parse_cli({"--partition=balanced,measured"});
  EXPECT_TRUE(cfg.engine.partition.measured);
  EXPECT_FALSE(cfg.engine.partition.calibrated);

  cfg = parse_cli({"--partition=uniform"});
  EXPECT_FALSE(cfg.engine.partition.measured);
  EXPECT_FALSE(cfg.engine.partition.calibrated);

  EXPECT_THROW((void)parse_cli({"--partition=uniform,calibrated"}),
               std::invalid_argument);
  EXPECT_THROW((void)parse_cli({"--partition=balanced,wrong"}),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// End-to-end: curves are kernel-kind- and backend-invariant
// ---------------------------------------------------------------------------

TEST(KernelEndToEnd, CurvesBitwiseEqualAcrossKindsAndBackends) {
  data::ImageDatasetConfig d;
  d.classes = 4;
  d.train_size = 48;
  d.test_size = 24;
  d.image_size = 8;
  d.noise_std = 0.4;
  d.seed = 11;
  nn::ResNetConfig m;
  m.base_channels = 6;
  m.blocks_per_group = {1, 1};
  core::ImageTask task(d, m, "tiny-image");

  core::TrainerConfig cfg;
  cfg.engine.method = pipeline::Method::PipeMare;
  cfg.engine.num_stages = 4;
  cfg.epochs = 2;
  cfg.minibatch_size = 24;
  cfg.microbatch_size = 6;
  cfg.schedule = core::TrainerConfig::Sched::Constant;
  cfg.lr = 0.05;
  cfg.seed = 5;
  cfg.backend = "sequential";

  KernelStateGuard guard;
  KernelRegistry::set_kind(KernelKind::naive);
  auto naive_seq = core::train(task, cfg);

  KernelRegistry::set_kind(KernelKind::tiled);
  auto tiled_seq = core::train(task, cfg);

  core::StealOptions steal;
  steal.workers = 3;
  steal.mode = sched::StealMode::Forced;
  cfg.backend = {"threaded_steal", steal};
  auto tiled_steal = core::train(task, cfg);

  ASSERT_EQ(naive_seq.curve.size(), tiled_seq.curve.size());
  ASSERT_EQ(naive_seq.curve.size(), tiled_steal.curve.size());
  for (std::size_t e = 0; e < naive_seq.curve.size(); ++e) {
    EXPECT_EQ(naive_seq.curve[e].train_loss, tiled_seq.curve[e].train_loss)
        << "epoch " << e;
    EXPECT_EQ(naive_seq.curve[e].metric, tiled_seq.curve[e].metric)
        << "epoch " << e;
    EXPECT_EQ(naive_seq.curve[e].param_norm, tiled_seq.curve[e].param_norm)
        << "epoch " << e;
    EXPECT_EQ(naive_seq.curve[e].train_loss, tiled_steal.curve[e].train_loss)
        << "epoch " << e;
    EXPECT_EQ(naive_seq.curve[e].metric, tiled_steal.curve[e].metric)
        << "epoch " << e;
    EXPECT_EQ(naive_seq.curve[e].param_norm, tiled_steal.curve[e].param_norm)
        << "epoch " << e;
  }
}

}  // namespace
}  // namespace pipemare::tensor
