#include <gtest/gtest.h>

#include <vector>

#include "channel/environment.h"
#include "dsp/batch.h"
#include "dsp/require.h"
#include "dsp/rng.h"

namespace ctc::channel {
namespace {

cvec random_signal(std::size_t n, std::uint64_t seed) {
  dsp::Rng rng(seed);
  cvec signal(n);
  for (auto& sample : signal) {
    sample = cplx{rng.gaussian(), rng.gaussian()};
  }
  return signal;
}

// One heterogeneous sensor field's worth of environments: different SNRs,
// one Rician-faded row, one row with CFO + random phase, one with a timing
// offset, one multipath row and one path-loss row. Exercises every per-row
// branch of the multi-env sweep.
std::vector<Environment> mixed_environments() {
  std::vector<Environment> envs;
  Environment quiet = Environment::awgn(30.0);
  envs.push_back(quiet);
  Environment faded = Environment::awgn(12.0);
  faded.rician_k_factor = 4.0;
  envs.push_back(faded);
  Environment offset = Environment::awgn(20.0);
  offset.cfo_hz = 40e3;
  offset.random_phase = true;
  envs.push_back(offset);
  Environment late = Environment::awgn(8.0);
  late.timing_offset = 0.35;
  envs.push_back(late);
  Environment echoing = Environment::awgn(14.0);
  echoing.multipath = MultipathProfile{};
  envs.push_back(echoing);
  envs.push_back(Environment::real_world(4.0));
  return envs;
}

TEST(PropagateBatchMultiTest, EachRowMatchesSerialPropagateBitForBit) {
  const cvec signal = random_signal(600, 77);
  const std::vector<Environment> envs = mixed_environments();

  std::vector<dsp::Rng> batch_rngs, serial_rngs;
  for (std::size_t r = 0; r < envs.size(); ++r) {
    batch_rngs.push_back(dsp::Rng::for_stream(91, r));
    serial_rngs.push_back(dsp::Rng::for_stream(91, r));
  }

  dsp::BatchBuffer batch;
  propagate_batch_multi(batch, signal, envs, std::span<dsp::Rng>(batch_rngs));
  ASSERT_EQ(batch.rows(), envs.size());
  ASSERT_EQ(batch.stride(), signal.size());

  for (std::size_t r = 0; r < envs.size(); ++r) {
    const cvec serial = envs[r].propagate(signal, serial_rngs[r]);
    const auto row = batch.row(r);
    ASSERT_EQ(row.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(row[i], serial[i]) << "row " << r << " sample " << i;
    }
  }
}

TEST(PropagateBatchMultiTest, RequiresOneRngPerEnvironment) {
  const cvec signal = random_signal(32, 1);
  const std::vector<Environment> envs(2, Environment::awgn(10.0));
  std::vector<dsp::Rng> rngs;
  rngs.push_back(dsp::Rng::for_stream(1, 0));
  dsp::BatchBuffer batch;
  EXPECT_THROW(
      propagate_batch_multi(batch, signal, envs, std::span<dsp::Rng>(rngs)),
      ContractError);
}

TEST(BatchEngineTest, BatchBufferReshapeKeepsRowsDisjoint) {
  dsp::BatchBuffer buffer;
  buffer.reset(3, 4);
  EXPECT_EQ(buffer.rows(), 3u);
  EXPECT_EQ(buffer.stride(), 4u);
  for (std::size_t r = 0; r < 3; ++r) {
    for (auto& x : buffer.row(r)) {
      x = cplx{static_cast<double>(r), 0.0};
    }
  }
  for (std::size_t r = 0; r < 3; ++r) {
    ASSERT_EQ(buffer.row(r).size(), 4u);
    for (const auto& x : buffer.row(r)) {
      EXPECT_EQ(x.real(), static_cast<double>(r));
    }
  }
  // Rows tile one contiguous allocation back to back.
  EXPECT_EQ(buffer.row(1).data(), buffer.row(0).data() + 4);
  EXPECT_EQ(buffer.row(2).data(), buffer.row(1).data() + 4);
  EXPECT_THROW(buffer.row(3), ContractError);
}

}  // namespace
}  // namespace ctc::channel
