package ensemble

import "tpuising/internal/ising/multispin"

// SetLaneThresholds installs one lane's acceptance pair directly, for the
// threshold-edge cases of the external golden test.
func (k *Kernel) SetLaneThresholds(lane int, th multispin.Thresholds) { k.setLaneThresholds(lane, th) }
