package main

import (
	"repro/internal/mapping"
	"repro/internal/obs"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps a metric name to its value.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// kindCounters are the obs-counter ratios of one kind's counted pass
// that the traced estimates reuse.
type kindCounters struct {
	activeRowFrac    float64
	macReadsPerImg   float64
	integratesPerImg float64
}

// perLayer collects the traced run's per-layer metrics.
type perLayer struct {
	metrics
	kindCounters map[string]kindCounters
}

func newPerLayer() *perLayer {
	return &perLayer{metrics: metrics{}, kindCounters: map[string]kindCounters{}}
}

// counters derives a kind's counter metrics from its counted-pass
// snapshot over n images. The ratios are deterministic for a seed, so
// both traced and untraced runs compute them; only traced runs report
// them.
func (pl *perLayer) counters(k *kind, snap obs.Snapshot, n int) {
	tot := snap.Totals
	per := func(v int64) float64 { return float64(v) / float64(n) }

	var c kindCounters
	if tot.MACReads > 0 {
		c.activeRowFrac = float64(tot.ActiveRowSum) / float64(tot.MACReads*mapping.M)
	}
	c.macReadsPerImg = per(tot.MACReads)

	// Stage-timesteps the spiking stages could have run, and neuron
	// integrations they did run: each weighted spiking stage integrates
	// every output neuron on each step it is not skipped.
	img0 := k.count[0]
	outputs := stageOutputs(k.model.converted.Folded, img0.Shape())
	T := float64(k.timed.Timesteps())
	var snnStages int
	for _, st := range snap.Stages {
		if st.Domain != "snn" {
			continue
		}
		snnStages++
		if nOut, ok := outputs[st.Name]; ok {
			steps := T*float64(n) - float64(st.SilentStageSkips)
			c.integratesPerImg += float64(nOut) * steps / float64(n)
		}
	}
	pl.kindCounters[k.name] = c

	pl.set("crossbar.mac_reads_per_img."+k.name, c.macReadsPerImg, "reads/img")
	pl.set("crossbar.active_row_frac."+k.name, c.activeRowFrac, "fraction")
	pl.set("noc.hops_per_img."+k.name, per(tot.NoCHops), "hops/img")
	pl.set("arch.edram_accesses_per_img."+k.name, per(tot.EDRAMAccesses), "accesses/img")
	if !k.spiking {
		return
	}
	stageSteps := float64(snnStages) * T * float64(n)
	pl.set("arch.silent_skip_frac."+k.name, float64(tot.SilentStageSkips)/stageSteps, "fraction")
	repeat := 0.0
	if tot.MACReads > 0 {
		repeat = float64(tot.RepeatReads) / float64(tot.MACReads)
	}
	pl.set("arch.repeat_hit_frac."+k.name, repeat, "fraction")
	pl.set("snn.spikes_per_img."+k.name, per(tot.SpikesEmitted), "spikes/img")
	pl.set("spikeplane.packed_words_per_img."+k.name, per(tot.PackedWords), "words/img")
}
