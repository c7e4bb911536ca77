package systems

import (
	"lockin/internal/machine"
	"lockin/internal/power"
	"lockin/internal/sim"
)

// IdlePower measures the power breakdown of a machine running nothing
// at all for dur cycles — the zero-active-threads baseline of the
// Figure 2 power charts.
func IdlePower(mc machine.Config, dur sim.Cycles) power.Breakdown {
	m := machine.New(mc)
	e0 := m.Meter.Energy()
	m.K.Run(dur)
	return m.Meter.Energy().Sub(e0).Power(m.K.Now(), m.Config().Power.BaseFreqGHz)
}
