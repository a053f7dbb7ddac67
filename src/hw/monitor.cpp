#include "hw/monitor.hpp"

#include <algorithm>
#include <cmath>

#include "util/contracts.hpp"

namespace pns::hw {

ThresholdChannel::ThresholdChannel(ChannelNetwork network,
                                   ComparatorParams comparator)
    : net_(network), pot_(network.pot_full_scale, network.pot_wiper),
      comp_(comparator) {
  PNS_EXPECTS(net_.r_top > 0.0);
  PNS_EXPECTS(net_.r_bottom_fixed > 0.0);
  PNS_EXPECTS(net_.pot_full_scale > 0.0);
  for (int c = 0; c < Mcp4131::kSteps; ++c) {
    const PotentialDivider div = divider_at(c);
    codes_[c] = {div.input_for_output(comp_.params().v_ref), div.ratio(),
                 div.input_for_output(comp_.rising_trip()),
                 div.input_for_output(comp_.falling_trip())};
  }
}

PotentialDivider ThresholdChannel::divider_at(int c) const {
  return PotentialDivider{net_.r_top,
                          net_.r_bottom_fixed + pot_.resistance_at(c)};
}

double ThresholdChannel::threshold_for_code(int c) const {
  // The comparator trips when the tap reaches v_ref, i.e. when the node is
  // at v_ref / ratio(code). Larger bottom resistance -> lower threshold.
  if (c >= 0 && c < Mcp4131::kSteps) return codes_[c].threshold;
  return divider_at(c).input_for_output(comp_.params().v_ref);
}

double ThresholdChannel::min_threshold() const {
  return threshold_for_code(Mcp4131::kSteps - 1);
}

double ThresholdChannel::max_threshold() const {
  return threshold_for_code(0);
}

double ThresholdChannel::set_threshold(double v_target, double v_node_now) {
  // Thresholds strictly decrease with the code, so the nearest one is a
  // neighbour of the first code at or below the target (for a NaN target
  // that is code 0, as a linear scan would also answer).
  const auto first_below = std::partition_point(
      codes_.begin(), codes_.end(),
      [v_target](const CodeValues& cv) { return cv.threshold > v_target; });
  const int below = static_cast<int>(first_below - codes_.begin());
  const auto err = [&](int c) {
    return std::abs(codes_[c].threshold - v_target);
  };
  int best = below;
  if (below == Mcp4131::kSteps ||
      (below > 0 && err(below - 1) <= err(below))) {
    // Ties go to the lower code, as a scan keeping the first minimum
    // would: step down over codes whose rounded error equals this one.
    best = below - 1;
    while (best > 0 && err(best - 1) == err(best)) --best;
  }
  pot_.set_code(best);
  // Reseed the comparator so the programming step cannot self-trigger.
  comp_.reset(v_node_now > threshold());
  return threshold();
}

double ThresholdChannel::threshold() const {
  return current_code().threshold;
}

double ThresholdChannel::quantization_error() const {
  const int c = pot_.code();
  const double here = threshold_for_code(c);
  double worst = 0.0;
  if (c > 0) worst = std::max(worst, std::abs(threshold_for_code(c - 1) - here) / 2.0);
  if (c < Mcp4131::kSteps - 1)
    worst = std::max(worst, std::abs(threshold_for_code(c + 1) - here) / 2.0);
  return worst;
}

bool ThresholdChannel::sample(double v_node) {
  return comp_.update(v_node * current_code().ratio);
}

double ThresholdChannel::node_rising_trip() const {
  return current_code().rising_trip;
}

double ThresholdChannel::node_falling_trip() const {
  return current_code().falling_trip;
}

const char* to_string(MonitorEdge e) {
  switch (e) {
    case MonitorEdge::kLowFalling:
      return "low-falling";
    case MonitorEdge::kLowRising:
      return "low-rising";
    case MonitorEdge::kHighRising:
      return "high-rising";
    case MonitorEdge::kHighFalling:
      return "high-falling";
  }
  return "?";
}

VoltageMonitor::VoltageMonitor(ChannelNetwork network,
                               ComparatorParams comparator)
    : low_(network, comparator), high_(network, comparator) {}

std::pair<double, double> VoltageMonitor::set_thresholds(double v_low,
                                                         double v_high,
                                                         double v_node_now) {
  PNS_EXPECTS(v_low < v_high);
  const double lo = low_.set_threshold(v_low, v_node_now);
  const double hi = high_.set_threshold(v_high, v_node_now);
  return {lo, hi};
}

double VoltageMonitor::low_threshold() const { return low_.threshold(); }
double VoltageMonitor::high_threshold() const { return high_.threshold(); }

std::optional<MonitorEdge> VoltageMonitor::sample(double v_node) {
  const bool low_before = low_.output();
  const bool high_before = high_.output();
  const bool low_after = low_.sample(v_node);
  const bool high_after = high_.sample(v_node);
  if (low_before && !low_after) return MonitorEdge::kLowFalling;
  if (!low_before && low_after) return MonitorEdge::kLowRising;
  if (!high_before && high_after) return MonitorEdge::kHighRising;
  if (high_before && !high_after) return MonitorEdge::kHighFalling;
  return std::nullopt;
}

double VoltageMonitor::interrupt_latency() const {
  // Comparator propagation + MOSFET stage + GPIO ISR dispatch on the SoC.
  constexpr double kIsrDispatch = 80e-6;
  return low_.propagation_delay() + kIsrDispatch;
}

}  // namespace pns::hw
