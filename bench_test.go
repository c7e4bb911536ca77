package lockin

import (
	"testing"

	"lockin/internal/core"
	"lockin/internal/experiments"
	"lockin/internal/workload"
)

// benchOpts are quick experiment settings so the full -bench=. sweep
// finishes in minutes. Raise Scale (or use cmd/lockbench -scale) for
// higher-fidelity regeneration of the paper's tables.
func benchOpts() experiments.Options {
	return experiments.Options{Seed: 42, Scale: 0.5, Quick: true}
}

// benchExperiment runs one registered paper table/figure per iteration
// and reports the number of table rows produced (sanity signal).
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := experiments.Find(id)
	if err != nil {
		b.Fatal(err)
	}
	rows := 0
	for i := 0; i < b.N; i++ {
		rows = 0
		for _, t := range e.Run(benchOpts()) {
			rows += t.NumRows()
		}
	}
	b.ReportMetric(float64(rows), "rows")
}

// One bench per paper table and figure (`lockbench -list` names them all).

func BenchmarkFig1(b *testing.B)  { benchExperiment(b, "fig1") }
func BenchmarkFig2(b *testing.B)  { benchExperiment(b, "fig2") }
func BenchmarkFig3(b *testing.B)  { benchExperiment(b, "fig3") }
func BenchmarkFig4(b *testing.B)  { benchExperiment(b, "fig4") }
func BenchmarkFig5(b *testing.B)  { benchExperiment(b, "fig5") }
func BenchmarkFig6(b *testing.B)  { benchExperiment(b, "fig6") }
func BenchmarkFig7(b *testing.B)  { benchExperiment(b, "fig7") }
func BenchmarkFig8(b *testing.B)  { benchExperiment(b, "fig8") }
func BenchmarkFig9(b *testing.B)  { benchExperiment(b, "fig9") }
func BenchmarkFig10(b *testing.B) { benchExperiment(b, "fig10") }
func BenchmarkFig11(b *testing.B) { benchExperiment(b, "fig11") }
func BenchmarkFig12(b *testing.B) { benchExperiment(b, "fig12") }
func BenchmarkFig13(b *testing.B) { benchExperiment(b, "fig13") }
func BenchmarkFig14(b *testing.B) { benchExperiment(b, "fig14") }
func BenchmarkFig15(b *testing.B) { benchExperiment(b, "fig15") }

func BenchmarkTable2(b *testing.B)       { benchExperiment(b, "tbl2") }
func BenchmarkSleepPeriod(b *testing.B)  { benchExperiment(b, "tbl_sleep") }
func BenchmarkTimeoutTable(b *testing.B) { benchExperiment(b, "tbl_timeout") }

// BenchmarkAblation covers the MUTEXEE design-choice ablations (spin
// budget, unlock wait, adaptation; TICKET pausing).
func BenchmarkAblation(b *testing.B) { benchExperiment(b, "ablation") }

// BenchmarkExtFuture covers the §8 future-hardware extension locks
// (user-level mwait, hierarchical ticket, backoff TAS).
func BenchmarkExtFuture(b *testing.B) { benchExperiment(b, "ext_future") }

// BenchmarkExtFairness covers the Jain fairness-index extension.
func BenchmarkExtFairness(b *testing.B) { benchExperiment(b, "ext_fairness") }

// BenchmarkSimLock measures simulated single-lock handover rate per
// algorithm, reporting simulated acquisitions per wall-second of the
// host (sim-acq/s) and the simulated TPP (acq/J).
func BenchmarkSimLock(b *testing.B) {
	for _, k := range core.AllKinds() {
		k := k
		b.Run(k.String(), func(b *testing.B) {
			var tpp, thr float64
			for i := 0; i < b.N; i++ {
				cfg := workload.DefaultMicroConfig(42)
				cfg.Factory = workload.FactoryFor(k)
				cfg.Threads = 20
				cfg.CS = 1000
				cfg.Outside = 7000
				cfg.Duration = 5_000_000
				r := workload.RunMicro(cfg)
				tpp, thr = r.TPP(), r.Throughput()
			}
			b.ReportMetric(thr, "sim-acq/s")
			b.ReportMetric(tpp, "sim-acq/J")
		})
	}
}
