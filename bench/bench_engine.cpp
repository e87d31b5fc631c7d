// Engineering microbenchmarks (google-benchmark): RNG throughput, event
// queue structures, DES kernel, SPN token game, reachability + solver and
// the closed-form evaluators.  These back the performance claims in the
// README and catch regressions in the hot paths.
#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/cpu_petri_net.hpp"
#include "core/models.hpp"
#include "des/cpu_model.hpp"
#include "des/event_queue.hpp"
#include "des/simulator.hpp"
#include "linalg/iterative.hpp"
#include "linalg/lu.hpp"
#include "markov/stages.hpp"
#include "markov/supplementary.hpp"
#include "petri/ctmc_solver.hpp"
#include "petri/simulation.hpp"
#include "petri/standard_nets.hpp"
#include "util/rng.hpp"

namespace {

using namespace wsn;

void BM_RngXoshiro(benchmark::State& state) {
  util::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng());
  }
}
BENCHMARK(BM_RngXoshiro);

void BM_RngExponential(benchmark::State& state) {
  util::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::SampleExponential(rng, 1.0));
  }
}
BENCHMARK(BM_RngExponential);

// Event ids in the kernel's layout: a fresh sequence above a recycled
// slot, so no two live events ever share a slot however long a run is.
class KernelIds {
 public:
  des::EventId Acquire() {
    std::size_t slot = slots_;
    if (free_.empty()) {
      ++slots_;
    } else {
      slot = free_.back();
      free_.pop_back();
    }
    return (seq_++ << des::kEventSlotBits) | slot;
  }
  void Release(des::EventId id) { free_.push_back(des::EventSlotOf(id)); }

 private:
  std::vector<std::size_t> free_;
  std::size_t slots_ = 0;
  des::EventId seq_ = 1;
};

void BM_EventQueueHoldModel(benchmark::State& state) {
  // Classic hold model: steady-state queue of `size` events; each step
  // pops the minimum and pushes a new event uniformly up to 10 s ahead.
  const std::size_t size = static_cast<std::size_t>(state.range(0));
  des::EventQueue queue;
  KernelIds ids;
  util::Rng rng(7);
  for (std::size_t i = 0; i < size; ++i) {
    queue.Push(util::UniformDouble(rng) * 10.0, ids.Acquire());
  }
  for (auto _ : state) {
    const des::QueuedEvent e = queue.PopMin();
    ids.Release(e.id);
    queue.Push(e.time + util::UniformDouble(rng) * 10.0, ids.Acquire());
  }
}
BENCHMARK(BM_EventQueueHoldModel)->Arg(16)->Arg(1024)->Arg(32768);

void BM_EventQueueTwoModeHold(benchmark::State& state) {
  // Netsim's mix of event times: `near` chains that re-arm 0-5 ms ahead
  // (TX completions) and `far` timers that re-arm 100-110 s ahead
  // (arrivals, death timers); every 25th step also cancels a random far
  // timer and reschedules it (a death reschedule).  {64, 32768} is close
  // to a 30k-node flat run: ~1% far pops, ~4% cancellations.
  const std::size_t near = static_cast<std::size_t>(state.range(0));
  const std::size_t far = static_cast<std::size_t>(state.range(1));
  des::EventQueue queue;
  KernelIds ids;
  util::Rng rng(7);
  std::vector<std::int64_t> owner;  // by slot: far timer index, or -1
  std::vector<des::EventId> far_id(far);
  const auto arm = [&](double time, std::int64_t timer) {
    const des::EventId id = ids.Acquire();
    const std::size_t slot = des::EventSlotOf(id);
    if (slot >= owner.size()) owner.resize(slot + 1);
    owner[slot] = timer;
    queue.Push(time, id);
    return id;
  };
  const auto far_delay = [&] {
    return 100.0 + util::UniformDouble(rng) * 10.0;
  };
  for (std::size_t i = 0; i < near; ++i) {
    arm(util::UniformDouble(rng) * 0.005, -1);
  }
  for (std::size_t t = 0; t < far; ++t) {
    far_id[t] =
        arm(util::UniformDouble(rng) * 110.0, static_cast<std::int64_t>(t));
  }
  std::uint64_t step = 0;
  for (auto _ : state) {
    const des::QueuedEvent e = queue.PopMin();
    ids.Release(e.id);
    const std::int64_t timer = owner[des::EventSlotOf(e.id)];
    if (timer < 0) {
      arm(e.time + util::UniformDouble(rng) * 0.005, -1);
    } else {
      far_id[timer] = arm(e.time + far_delay(), timer);
    }
    if (++step % 25 == 0) {
      const std::size_t t = util::UniformBelow(rng, far);
      queue.Cancel(far_id[t]);
      ids.Release(far_id[t]);
      far_id[t] = arm(e.time + far_delay(), static_cast<std::int64_t>(t));
    }
  }
}
BENCHMARK(BM_EventQueueTwoModeHold)
    ->Args({64, 1024})
    ->Args({64, 32768})
    ->Args({1024, 32768});

void BM_DesCpuModelSecondOfSimulation(benchmark::State& state) {
  des::CpuModelConfig cfg;
  cfg.sim_time = 100.0;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    des::CpuSimulation sim(cfg, seed++);
    benchmark::DoNotOptimize(sim.Run().jobs_completed);
  }
  state.SetItemsProcessed(state.iterations() * 100);  // simulated seconds
}
BENCHMARK(BM_DesCpuModelSecondOfSimulation);

void BM_SpnTokenGameCpuNet(benchmark::State& state) {
  core::CpuParams params;
  const petri::PetriNet net = core::BuildCpuPetriNet(params);
  petri::SimulationConfig cfg;
  cfg.horizon = 100.0;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    cfg.seed = seed++;
    benchmark::DoNotOptimize(petri::SimulateSpn(net, cfg).total_firings);
  }
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_SpnTokenGameCpuNet);

void BM_SpnTokenGameMm1k(benchmark::State& state) {
  const petri::PetriNet net = petri::MakeMm1kNet(0.8, 1.0, 10);
  petri::SimulationConfig cfg;
  cfg.horizon = static_cast<double>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    cfg.seed = seed++;
    benchmark::DoNotOptimize(petri::SimulateSpn(net, cfg).total_firings);
  }
}
BENCHMARK(BM_SpnTokenGameMm1k)->Arg(100)->Arg(1000);

void BM_TangibleReachabilityMm1k(benchmark::State& state) {
  const petri::PetriNet net =
      petri::MakeMm1kNet(0.8, 1.0, static_cast<std::uint32_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(petri::BuildTangibleGraph(net).markings.size());
  }
}
BENCHMARK(BM_TangibleReachabilityMm1k)->Arg(16)->Arg(128)->Arg(512);

void BM_SpnSolverStageExpansion(benchmark::State& state) {
  core::CpuParams params;
  params.power_down_threshold = 0.3;
  params.power_up_delay = 0.3;
  const petri::PetriNet net = core::BuildCpuPetriNet(params);
  petri::SolverOptions opts;
  opts.det_stages = static_cast<std::size_t>(state.range(0));
  opts.truncate_tokens = 60;  // the Fig. 3 net is open (unbounded buffer)
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        petri::SolveSteadyState(net, opts).expanded_states);
  }
}
BENCHMARK(BM_SpnSolverStageExpansion)->Arg(2)->Arg(8)->Arg(20);

void BM_SupplementaryClosedForm(benchmark::State& state) {
  for (auto _ : state) {
    const markov::SupplementaryVariableModel m(1.0, 10.0, 0.3, 0.3);
    benchmark::DoNotOptimize(m.Evaluate().p_idle);
  }
}
BENCHMARK(BM_SupplementaryClosedForm);

void BM_StagesCtmcSolve(benchmark::State& state) {
  for (auto _ : state) {
    const markov::StagesCpuModel m(
        1.0, 10.0, 0.3, 0.3, static_cast<std::size_t>(state.range(0)),
        static_cast<std::size_t>(state.range(0)));
    benchmark::DoNotOptimize(m.Evaluate().p_idle);
  }
}
BENCHMARK(BM_StagesCtmcSolve)->Arg(1)->Arg(4)->Arg(10);

void BM_DenseLuSolve(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(3);
  linalg::Matrix a(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    double sum = 0.0;
    for (std::size_t c = 0; c < n; ++c) {
      a(r, c) = util::UniformDouble(rng);
      sum += a(r, c);
    }
    a(r, r) += sum + 1.0;
  }
  const std::vector<double> b(n, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::SolveDense(a, b));
  }
}
BENCHMARK(BM_DenseLuSolve)->Arg(16)->Arg(64)->Arg(256);

void BM_GaussSeidelStationary(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(5);
  linalg::CooBuilder coo(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t next = (i + 1) % n;
    const double r1 = util::UniformDouble(rng) + 0.1;
    coo.Add(i, next, r1);
    coo.Add(i, i, -r1);
    const std::size_t far = (i + n / 2) % n;
    if (far != i) {
      const double r2 = util::UniformDouble(rng) + 0.1;
      coo.Add(i, far, r2);
      coo.Add(i, i, -r2);
    }
  }
  const linalg::CsrMatrix q(coo);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::StationaryGaussSeidel(q).iterations);
  }
}
BENCHMARK(BM_GaussSeidelStationary)->Arg(64)->Arg(512)->Arg(4096);

}  // namespace
