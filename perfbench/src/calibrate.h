// Host-speed calibration. The benchmark host is shared: the same seeds run up
// to 1.6x slower for stretches of seconds while neighbours are busy. A fixed
// kernel that shares no code with the program under test is timed next to
// every seed run; dividing a seed's wall time by the kernel's current time
// (and multiplying by the kernel's nominal time) expresses it at a nominal
// host speed, which moves far less between runs than the raw time does. A
// change to the program cannot move the kernel.
#pragma once

namespace chtbench {

// The kernel's nominal wall time: normalized times are "ms on a host where
// the kernel takes this long".
constexpr double kNominalCalibrationMs = 1.0;

// Runs the kernel once (a small discrete-event loop: a heap of callbacks,
// string keys in a map, shared payloads) and returns its wall time in ms.
double time_calibration_kernel();

}  // namespace chtbench
