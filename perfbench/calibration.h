// Machine-speed calibration for host-time metrics on a shared box.
//
// On a virtual machine that shares its cores and caches with other tenants,
// the same trial can take 30-60% longer in one minute than in the next.
// That drift is common to everything the process runs, so the benchmark
// measures it: before every pass (and after every set-up) it times a fixed
// kernel of its own (heap and ordered-map churn over about a megabyte;
// nothing from the simulator) and scales that pass's host times by
// kNominalCalibrationMs / (the kernel's time), so they read as time on a
// machine where the kernel takes the nominal time. The report lines print
// the raw figures beside the calibrated ones.
#ifndef PERFBENCH_CALIBRATION_H_
#define PERFBENCH_CALIBRATION_H_

namespace perfbench {

// Kernel time on an uncontended 4-vCPU Intel Xeon VM (RelWithDebInfo).
inline constexpr double kNominalCalibrationMs = 10.0;

// Runs the kernel once and returns its wall time in ms.
double RunCalibrationKernel();

}  // namespace perfbench

#endif  // PERFBENCH_CALIBRATION_H_
