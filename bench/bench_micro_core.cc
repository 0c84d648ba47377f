// google-benchmark micro-benchmarks of the FDX building blocks: the pair
// transform (dispatched and scalar kernels), graphical lasso, U D U^T
// factorization, covariance, stripped partitions, entropy, and the
// end-to-end FDX, TANE and CORDS runs. The binary takes only
// google-benchmark's own flags, e.g.
//
//   bench_micro_core --benchmark_filter=PairTransformCounts
//
// End-to-end and per-layer timings live in perfbench/ (BENCHMARK.json).

#include <benchmark/benchmark.h>

#include <utility>

#include "baselines/cords.h"
#include "baselines/info_theory.h"
#include "baselines/tane.h"
#include "core/fdx.h"
#include "core/transform.h"
#include "fd/partition.h"
#include "linalg/factorization.h"
#include "linalg/glasso.h"
#include "linalg/simd.h"
#include "linalg/stats.h"
#include "synth/generator.h"
#include "util/rng.h"

namespace fdx {
namespace {

SyntheticDataset MakeData(size_t tuples, size_t attributes) {
  SyntheticConfig config;
  config.num_tuples = tuples;
  config.num_attributes = attributes;
  config.seed = 77;
  auto ds = GenerateSynthetic(config);
  return *std::move(ds);
}

void BM_PairTransformMoments(benchmark::State& state) {
  const SyntheticDataset ds =
      MakeData(static_cast<size_t>(state.range(0)),
               static_cast<size_t>(state.range(1)));
  for (auto _ : state) {
    auto moments = PairTransformMoments(ds.noisy, {});
    benchmark::DoNotOptimize(moments);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) *
                          state.range(1));
}
BENCHMARK(BM_PairTransformMoments)
    ->Args({1000, 8})
    ->Args({1000, 32})
    ->Args({10000, 8})
    ->Args({10000, 32});

void BM_PairTransformCounts(benchmark::State& state) {
  const SyntheticDataset ds =
      MakeData(static_cast<size_t>(state.range(0)),
               static_cast<size_t>(state.range(1)));
  for (auto _ : state) {
    auto counts = PairTransformCounts(ds.noisy, {});
    benchmark::DoNotOptimize(counts);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) *
                          state.range(1));
}
BENCHMARK(BM_PairTransformCounts)->Args({10000, 8})->Args({10000, 32});

/// The production pass loop pinned to the scalar kernels: against
/// BM_PairTransformCounts it times what the dispatched SIMD gather, pack
/// and popcount kernels save.
void BM_PairTransformCountsScalar(benchmark::State& state) {
  const SyntheticDataset ds =
      MakeData(static_cast<size_t>(state.range(0)),
               static_cast<size_t>(state.range(1)));
  const SimdLevel ambient = ActiveSimdLevel();
  SetSimdLevel(SimdLevel::kScalar);
  for (auto _ : state) {
    auto counts = PairTransformCounts(ds.noisy, {});
    benchmark::DoNotOptimize(counts);
  }
  SetSimdLevel(ambient);
  state.SetItemsProcessed(state.iterations() * state.range(0) *
                          state.range(1));
}
BENCHMARK(BM_PairTransformCountsScalar)->Args({10000, 8})->Args({10000, 32});

void BM_GraphicalLasso(benchmark::State& state) {
  const size_t k = static_cast<size_t>(state.range(0));
  const SyntheticDataset ds = MakeData(2000, k);
  auto moments = PairTransformMoments(ds.noisy, {});
  GlassoOptions options;
  for (auto _ : state) {
    auto result = GraphicalLasso(moments->cov, options);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_GraphicalLasso)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void BM_UdutFactor(benchmark::State& state) {
  const size_t k = static_cast<size_t>(state.range(0));
  Rng rng(3);
  Matrix m(k, k);
  for (size_t i = 0; i < k; ++i) {
    for (size_t j = 0; j < k; ++j) m(i, j) = rng.NextGaussian();
  }
  Matrix spd = m.Multiply(m.Transpose());
  for (size_t i = 0; i < k; ++i) spd(i, i) += static_cast<double>(k);
  for (auto _ : state) {
    auto result = UdutFactor(spd);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_UdutFactor)->Arg(16)->Arg(64)->Arg(128);

void BM_PartitionProduct(benchmark::State& state) {
  const SyntheticDataset ds =
      MakeData(static_cast<size_t>(state.range(0)), 8);
  const EncodedTable encoded = EncodedTable::Encode(ds.noisy);
  StrippedPartition a = StrippedPartition::FromColumn(encoded, 0);
  StrippedPartition b = StrippedPartition::FromColumn(encoded, 1);
  for (auto _ : state) {
    StrippedPartition product = StrippedPartition::Multiply(a, b);
    benchmark::DoNotOptimize(product);
  }
}
BENCHMARK(BM_PartitionProduct)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_Entropy(benchmark::State& state) {
  const SyntheticDataset ds =
      MakeData(static_cast<size_t>(state.range(0)), 8);
  const EncodedTable encoded = EncodedTable::Encode(ds.noisy);
  const AttributeSet set = AttributeSet::FromIndices({0, 1, 2});
  for (auto _ : state) {
    const double h = Entropy(encoded, set);
    benchmark::DoNotOptimize(h);
  }
}
BENCHMARK(BM_Entropy)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_Covariance(benchmark::State& state) {
  Rng rng(4);
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t k = static_cast<size_t>(state.range(1));
  Matrix samples(n, k);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < k; ++j) samples(i, j) = rng.NextDouble();
  }
  for (auto _ : state) {
    auto cov = Covariance(samples);
    benchmark::DoNotOptimize(cov);
  }
}
BENCHMARK(BM_Covariance)->Args({10000, 16})->Args({10000, 64});

void BM_FdxEndToEnd(benchmark::State& state) {
  const SyntheticDataset ds =
      MakeData(static_cast<size_t>(state.range(0)),
               static_cast<size_t>(state.range(1)));
  FdxDiscoverer discoverer;
  for (auto _ : state) {
    auto result = discoverer.Discover(ds.noisy);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_FdxEndToEnd)->Args({1000, 8})->Args({1000, 32})->Args({5000, 16});

void BM_TaneEndToEnd(benchmark::State& state) {
  const SyntheticDataset ds =
      MakeData(static_cast<size_t>(state.range(0)), 8);
  TaneOptions options;
  options.max_lhs_size = 3;
  for (auto _ : state) {
    auto result = DiscoverTane(ds.noisy, options);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_TaneEndToEnd)->Arg(1000)->Arg(5000);

void BM_CordsEndToEnd(benchmark::State& state) {
  const SyntheticDataset ds =
      MakeData(static_cast<size_t>(state.range(0)), 12);
  for (auto _ : state) {
    auto result = DiscoverCords(ds.noisy, {});
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_CordsEndToEnd)->Arg(1000)->Arg(10000);

void BM_PermutationBias(benchmark::State& state) {
  const SyntheticDataset ds = MakeData(1000, 6);
  const EncodedTable encoded = EncodedTable::Encode(ds.noisy);
  Rng rng(11);
  const AttributeSet lhs = AttributeSet::FromIndices({0, 1});
  for (auto _ : state) {
    const double bias =
        PermutationBias(encoded, lhs, 3, static_cast<size_t>(state.range(0)),
                        &rng);
    benchmark::DoNotOptimize(bias);
  }
}
BENCHMARK(BM_PermutationBias)->Arg(1)->Arg(3)->Arg(10);

void BM_ExactPermutationBias(benchmark::State& state) {
  const SyntheticDataset ds =
      MakeData(static_cast<size_t>(state.range(0)), 6);
  const EncodedTable encoded = EncodedTable::Encode(ds.noisy);
  const AttributeSet lhs = AttributeSet::FromIndices({0, 1});
  for (auto _ : state) {
    const double bias = ExactPermutationBias(encoded, lhs, 3);
    benchmark::DoNotOptimize(bias);
  }
}
BENCHMARK(BM_ExactPermutationBias)->Arg(500)->Arg(2000);

}  // namespace
}  // namespace fdx

BENCHMARK_MAIN();
