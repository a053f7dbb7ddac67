// Micro benchmarks (google-benchmark) of the library's hot paths:
// the implicit PV solve, adaptive integrator stepping, power-model
// evaluation, controller ISR, monitor programming, and an end-to-end
// simulated second. These bound the cost of the co-simulation loop and
// document the sim/realtime ratio.
#include <benchmark/benchmark.h>

#include <limits>
#include <span>

#include "core/controller.hpp"
#include "ehsim/circuit.hpp"
#include "ehsim/rk23.hpp"
#include "ehsim/solar_cell.hpp"
#include "ehsim/sources.hpp"
#include "hw/monitor.hpp"
#include "sim/experiment.hpp"
#include "sweep/scenario.hpp"

namespace {

using namespace pns;

const soc::Platform& xu4() {
  static soc::Platform p = soc::Platform::odroid_xu4();
  return p;
}

void BM_SolarCellNewtonSolve(benchmark::State& state) {
  const auto cell = sim::paper_pv_array();
  double v = 4.1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cell.current(v, 850.0));
    v += 0.01;
    if (v > 6.5) v = 4.1;
  }
}
BENCHMARK(BM_SolarCellNewtonSolve);

void BM_SolarCellNewtonSolveWarmSeed(benchmark::State& state) {
  // PvSource's seeded solve: Newton started from the last root plus its
  // slope times the voltage step (a cold start after the wrap). It takes
  // fewer iterations than the cold solve above, but each solve waits on
  // the previous root, so the CPU cannot overlap neighbouring solves as
  // it can the independent cold ones: compare iterations, not ns.
  const auto cell = sim::paper_pv_array();
  const double il = cell.photo_current(850.0);
  double v = 4.1;
  ehsim::PvSolve last = cell.solve(v, il, il);
  for (auto _ : state) {
    const double dv = v + 0.01 > 6.5 ? 4.1 - v : 0.01;
    const double seed = dv > 0.0 ? last.i + last.di_dv * dv : il;
    v += dv;
    last = cell.solve(v, il, seed);
    benchmark::DoNotOptimize(last.i);
  }
}
BENCHMARK(BM_SolarCellNewtonSolveWarmSeed);

void BM_PvSourceExactRepeatedPoint(benchmark::State& state) {
  // The memo path: the co-simulation loop re-evaluates the source at the
  // same (v, t) at every FSAL restart and segment boundary.
  const ehsim::PvSource source(sim::paper_pv_array(),
                               [](double) { return 850.0; });
  for (auto _ : state) {
    benchmark::DoNotOptimize(source.current(5.1, 0.0));
  }
}
BENCHMARK(BM_PvSourceExactRepeatedPoint);

void BM_PvSourceTabulated(benchmark::State& state) {
  const ehsim::PvSource source(sim::paper_pv_array(),
                               [](double) { return 850.0; },
                               ehsim::PvSource::Mode::kTabulated);
  double v = 4.1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(source.current(v, 0.0));
    v += 0.01;
    if (v > 6.5) v = 4.1;
  }
}
BENCHMARK(BM_PvSourceTabulated);

void BM_SolarCellMppSearch(benchmark::State& state) {
  const auto cell = sim::paper_pv_array();
  double g = 200.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cell.mpp(g).power);
    g += 37.0;
    if (g > 1100.0) g = 200.0;
  }
}
BENCHMARK(BM_SolarCellMppSearch);

void BM_PowerModelBoardPower(benchmark::State& state) {
  const auto& p = xu4();
  std::size_t i = 0;
  for (auto _ : state) {
    const soc::OperatingPoint opp{i % p.opps.size(),
                                  {1 + static_cast<int>(i % 4),
                                   static_cast<int>(i % 5)}};
    benchmark::DoNotOptimize(p.power.board_power(opp, p.opps, 1.0));
    ++i;
  }
}
BENCHMARK(BM_PowerModelBoardPower);

void BM_Rk23SecondOfCircuit(benchmark::State& state) {
  const auto cell = sim::paper_pv_array();
  const ehsim::PvSource source(cell, [](double) { return 900.0; });
  const ehsim::ConstantPowerLoad load(3.5);
  const ehsim::EhCircuit circuit(
      source, load,
      ehsim::Capacitor{47e-3, 0.0, 50e3});
  ehsim::Rk23Options opt;
  opt.max_step = 0.01;
  for (auto _ : state) {
    ehsim::Rk23Integrator ig(circuit, opt);
    const double v0 = 5.2;
    ig.reset(0.0, std::span<const double>(&v0, 1));
    benchmark::DoNotOptimize(ig.advance(1.0).steps_taken);
  }
}
BENCHMARK(BM_Rk23SecondOfCircuit);

void BM_Rk23PiSecondOfCircuit(benchmark::State& state) {
  // Same integration as BM_Rk23SecondOfCircuit under the PI step
  // controller with the rk23pi kind's 50 ms ceiling: the controller
  // holds the step at what the tolerance admits instead of cycling
  // through the clamp.
  const auto cell = sim::paper_pv_array();
  const ehsim::PvSource source(cell, [](double) { return 900.0; });
  const ehsim::ConstantPowerLoad load(3.5);
  const ehsim::EhCircuit circuit(source, load,
                                 ehsim::Capacitor{47e-3, 0.0, 50e3});
  ehsim::Rk23Options opt;
  opt.max_step = 0.25;
  opt.step_control = ehsim::StepControl::kPi;
  opt.event_localization = ehsim::EventLocalization::kDenseRoot;
  for (auto _ : state) {
    ehsim::Rk23Integrator ig(circuit, opt);
    const double v0 = 5.2;
    ig.reset(0.0, std::span<const double>(&v0, 1));
    benchmark::DoNotOptimize(ig.advance(1.0).steps_taken);
  }
}
BENCHMARK(BM_Rk23PiSecondOfCircuit);

// Event-path cost of one integrated second with a (never-firing) watch
// level, in both event representations. The threshold form evaluates as a
// subtract; the callback form pays the type-erased call.
void bench_rk23_event_path(benchmark::State& state,
                           const ehsim::EventSpec& ev) {
  const auto cell = sim::paper_pv_array();
  const ehsim::PvSource source(cell, [](double) { return 900.0; });
  const ehsim::ConstantPowerLoad load(3.5);
  const ehsim::EhCircuit circuit(source, load,
                                 ehsim::Capacitor{47e-3, 0.0, 50e3});
  ehsim::Rk23Options opt;
  opt.max_step = 0.01;
  ehsim::Rk23Integrator ig(circuit, opt);
  for (auto _ : state) {
    const double v0 = 5.2;
    ig.reset(0.0, std::span<const double>(&v0, 1));
    benchmark::DoNotOptimize(
        ig.advance(1.0, std::span<const ehsim::EventSpec>(&ev, 1))
            .steps_taken);
  }
}

void BM_Rk23EventPathThreshold(benchmark::State& state) {
  bench_rk23_event_path(state,
                        ehsim::EventSpec::threshold(
                            1.0, ehsim::EventDirection::kFalling, 1));
}
BENCHMARK(BM_Rk23EventPathThreshold);

void BM_Rk23EventPathCallback(benchmark::State& state) {
  bench_rk23_event_path(
      state,
      ehsim::EventSpec{[](double, std::span<const double> y) {
                         return y[0] - 1.0;
                       },
                       ehsim::EventDirection::kFalling, 1});
}
BENCHMARK(BM_Rk23EventPathCallback);

void BM_DenseOutputEventPath(benchmark::State& state) {
  // A *firing* threshold localised by the dense-output cubic root solve:
  // the node discharges from 5.2 V with no harvest, fires the watch
  // level, and the integrator continues to the end of the second. The
  // bisection path pays ~60 Hermite evaluations at the crossing; the
  // cubic solve a handful of polynomial ones.
  const ehsim::ConstantCurrentSource source(0.0);
  const ehsim::ConstantPowerLoad load(3.5);
  const ehsim::EhCircuit circuit(source, load,
                                 ehsim::Capacitor{47e-3, 0.0, 50e3});
  ehsim::Rk23Options opt;
  opt.max_step = 0.05;
  opt.step_control = ehsim::StepControl::kPi;
  opt.event_localization = ehsim::EventLocalization::kDenseRoot;
  ehsim::Rk23Integrator ig(circuit, opt);
  const auto ev =
      ehsim::EventSpec::threshold(5.0, ehsim::EventDirection::kFalling, 1);
  for (auto _ : state) {
    const double v0 = 5.2;
    ig.reset(0.0, std::span<const double>(&v0, 1));
    auto res = ig.advance(1.0, std::span<const ehsim::EventSpec>(&ev, 1));
    benchmark::DoNotOptimize(res.event_fired);
    res = ig.advance(1.0);
    benchmark::DoNotOptimize(res.steps_taken);
  }
}
BENCHMARK(BM_DenseOutputEventPath);

void BM_ControllerIsr(benchmark::State& state) {
  hw::VoltageMonitor monitor;
  ctl::PowerNeutralController controller(xu4(), monitor, {});
  controller.calibrate(5.2, 0.0);
  double t = 0.0;
  soc::OperatingPoint opp{4, {4, 1}};
  for (auto _ : state) {
    t += 0.3;
    auto plan = controller.on_interrupt(
        (static_cast<long>(t * 10) % 2) != 0
            ? hw::MonitorEdge::kLowFalling
            : hw::MonitorEdge::kHighRising,
        t, opp);
    benchmark::DoNotOptimize(plan.size());
  }
}
BENCHMARK(BM_ControllerIsr);

void BM_MonitorThresholdProgramming(benchmark::State& state) {
  hw::VoltageMonitor monitor;
  double v = 4.4;
  for (auto _ : state) {
    benchmark::DoNotOptimize(monitor.set_thresholds(v, v + 0.2, v + 0.1));
    v += 0.05;
    if (v > 5.4) v = 4.4;
  }
}
BENCHMARK(BM_MonitorThresholdProgramming);

/// One simulated minute of PNS under partial sun, run exactly as a sweep
/// row with `--integrator <kind>` is (a fresh weather trace each time).
void bench_end_to_end(benchmark::State& state,
                      ehsim::PvSource::Mode pv_mode, bool pi = false) {
  sweep::ScenarioSpec scenario;
  scenario.condition = trace::WeatherCondition::kPartialSun;
  scenario.t_start = 12.0 * 3600.0;
  scenario.t_end = scenario.t_start + 60.0;
  scenario.pv_mode = pv_mode;
  // The non-pi rows keep timing the rk23 engine, as they have since the
  // first BENCH report, so the trajectory stays comparable.
  scenario.integrator = sweep::IntegratorSpec::parse(pi ? "rk23pi" : "rk23");
  for (auto _ : state) {
    const auto r = sweep::run_scenario(scenario);
    benchmark::DoNotOptimize(r.metrics.instructions);
  }
}

void BM_EndToEndSimulatedMinute(benchmark::State& state) {
  bench_end_to_end(state, ehsim::PvSource::Mode::kExact);
}
BENCHMARK(BM_EndToEndSimulatedMinute)->Unit(benchmark::kMillisecond);

void BM_EndToEndSimulatedMinuteTabulated(benchmark::State& state) {
  bench_end_to_end(state, ehsim::PvSource::Mode::kTabulated);
}
BENCHMARK(BM_EndToEndSimulatedMinuteTabulated)
    ->Unit(benchmark::kMillisecond);

void BM_EndToEndSimulatedMinuteRk23Pi(benchmark::State& state) {
  bench_end_to_end(state, ehsim::PvSource::Mode::kExact, /*pi=*/true);
}
BENCHMARK(BM_EndToEndSimulatedMinuteRk23Pi)->Unit(benchmark::kMillisecond);

// One simulated HOUR at a pinned operating point under constant
// irradiance -- a sensor node on steady sun. The node charges to its
// stable equilibrium in the first seconds and then nothing happens for
// 59.9 minutes: exactly the shape the coasting fast path exists for.
// (The power-neutral controller is NOT quiescent here -- it limit-cycles
// between thresholds -- so the static OPP is the honest scenario.)
void bench_quiescent_hour(benchmark::State& state, bool coast) {
  // Array calibration and the OPP search are hoisted out of the loop so
  // the iteration times the simulated hour, not the setup. The source is
  // built per iteration: each PV solve is seeded from the source's last
  // one, so a reused source would start every hour from a different
  // history and the iterations would not time the same work.
  const auto cell = sim::paper_pv_array();
  const auto opp = sim::balanced_opp(xu4(), cell.mpp(700.0).power);
  sweep::ScenarioSpec scenario;  // only used for the config shape
  scenario.t_start = 0.0;
  scenario.t_end = 3600.0;
  for (auto _ : state) {
    ehsim::PvSource source(cell, [](double) { return 700.0; });
    source.set_irradiance_hold(
        [](double) { return std::numeric_limits<double>::infinity(); });
    auto cfg = sweep::make_sim_config(scenario);
    cfg.coast = coast;
    auto r = sim::run_pv_control(xu4(), source,
                                 sim::ControlSelection::pinned(opp), cfg,
                                 /*warm_start=*/true);
    benchmark::DoNotOptimize(r.metrics.instructions);
  }
}

void BM_CoastingQuiescentHour(benchmark::State& state) {
  bench_quiescent_hour(state, /*coast=*/true);
}
BENCHMARK(BM_CoastingQuiescentHour)->Unit(benchmark::kMillisecond);

void BM_QuiescentHourNoCoast(benchmark::State& state) {
  // The same hour stepped the ordinary way: the denominator of the
  // coasting speedup the performance docs quote.
  bench_quiescent_hour(state, /*coast=*/false);
}
BENCHMARK(BM_QuiescentHourNoCoast)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
