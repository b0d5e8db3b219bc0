package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"crystalchoice/internal/core"
	"crystalchoice/internal/explore"
	"crystalchoice/internal/transport"
)

// rep is what one replay of a workload on a fresh deployment yields.
// exact holds everything the determinism contract pins: it must be
// identical across reps of one seed, traced or not. The remaining fields
// are wall-clock measurements.
type rep struct {
	exact exact

	setupS     float64     // deploy + schedule + warmup
	setupSlow  float64     // the host's slowdown around the set-up, see hostspeed.go
	wallS      float64     // measured phase, less the reference passes and the stolen time
	slow       float64     // the host's slowdown during the measured phase
	host       hostReading // what it is computed from
	cpuS       float64     // process user+sys CPU over the measured phase
	stealS     float64     // time the hypervisor withheld the vCPUs during the measured phase
	eventsUs   []float64   // one exact sample per measured simulator event, in order
	tailBeyond int         // samples the tail percentile must have beyond it
	sorted     []float64   // eventsUs ascending; see sortedUs
	heapMB     float64     // live heap after a forced GC, over the pre-deploy baseline
	allocBytes uint64      // heap bytes allocated during the measured phase
	mallocs    uint64
	gcCycles   uint32
	gcPauseNs  uint64
	core       core.Stats    // measured-phase delta (histograms included)
	trace      *liveTrace    // nil on untraced reps
	states     int           // offline workloads: states explored in the measured phase
	offTrace   *offlineTrace // offline workloads, traced reps only
}

// work is the rep's count of user-visible work: ops on a live workload,
// explored states on an offline one.
func (r *rep) work() float64 {
	if r.states > 0 {
		return float64(r.states)
	}
	return float64(r.exact.ops)
}

// steps is the rep's count of timed units: simulator events, or explored
// states.
func (r *rep) steps() float64 {
	if r.states > 0 {
		return float64(r.states)
	}
	return float64(r.exact.events)
}

// tailBeyond is how many samples a live rep's tail percentile must have
// beyond it. Ten would do for the statistics; but when the hypervisor takes
// the vCPU away for a few milliseconds, the event it happens in reads as a
// few milliseconds, and in a noisy minute that happens to one or two
// events in a hundred: the p99 of a rep of 5 000 events then measures the
// hypervisor. With 200 beyond it the tail is p95 on reps of under 20 000
// events and p99 on longer ones, and a hundred stalls move it little.
const tailBeyond = 200

// p50Us, tailUs and cpuUs are the rep's per-event figures as measured,
// before compensation for the host's slowdown. tailUs is the highest tail
// percentile that has r.tailBeyond samples beyond it, see tailPercentile.
func (r *rep) p50Us() float64  { return median(r.sortedUs()) }
func (r *rep) tailUs() float64 { v, _ := tailPercentile(r.sortedUs(), r.tailBeyond); return v }
func (r *rep) cpuUs() float64  { return r.cpuS * 1e6 / r.steps() }

// dropStolen takes out of the rep's wall time what the hypervisor withheld
// from its vcpus busy vCPUs (/proc/stat counts all of them together).
func (r *rep) dropStolen(vcpus int) {
	r.wallS -= min(r.stealS/float64(vcpus), r.wallS/2)
}

// sortedUs returns eventsUs ascending, sorted once.
func (r *rep) sortedUs() []float64 {
	if r.sorted == nil {
		r.sorted = sortedCopy(r.eventsUs)
	}
	return r.sorted
}

// exact is the virtual-time outcome of a rep.
type exact struct {
	digest          uint64
	ops             int     // issued in the measured phase
	failed          int     // of those, not completed by the end of the drain
	events          int     // simulator events executed in the measured phase
	commitP50Delays float64 // median commit latency in mean one-way network delays
	commitMeanVms   float64
	commitP50Vms    float64
	commitP99Vms    float64
	maxGapVms       float64 // longest virtual gap between successive commits
	net             transport.Stats
	counters        [12]uint64 // measured-phase core.Stats counters, see coreCounters
}

// coreCounters flattens the scalar counters of a core.Stats delta in a
// fixed order. DroppedWindows is left out: it counts wall-clock overruns.
func coreCounters(s core.Stats) [12]uint64 {
	return [12]uint64{s.Choices, s.Predictions, s.AsyncPredictions, s.CacheHits, s.CacheMisses,
		s.LookaheadStates, s.Steered, s.SteeringChecks, s.Checkpoints, s.ClassCacheHits, s.ClassCacheMisses,
		s.ClassInvalidations}
}

// statsDelta returns the measured-phase view of the cluster counters.
func statsDelta(after, before core.Stats) core.Stats {
	d := after
	d.Choices -= before.Choices
	d.Predictions -= before.Predictions
	d.AsyncPredictions -= before.AsyncPredictions
	d.CacheHits -= before.CacheHits
	d.CacheMisses -= before.CacheMisses
	d.LookaheadStates -= before.LookaheadStates
	d.Steered -= before.Steered
	d.SteeringChecks -= before.SteeringChecks
	d.Checkpoints -= before.Checkpoints
	d.DroppedWindows -= before.DroppedWindows
	d.ClassCacheHits -= before.ClassCacheHits
	d.ClassCacheMisses -= before.ClassCacheMisses
	d.ClassInvalidations -= before.ClassInvalidations
	d.SteerLatency = after.SteerLatency.Delta(before.SteerLatency)
	d.ResolveLatency = after.ResolveLatency.Delta(before.ResolveLatency)
	return d
}

func netDelta(after, before transport.Stats) transport.Stats {
	return transport.Stats{
		Sent:      after.Sent - before.Sent,
		Delivered: after.Delivered - before.Delivered,
		Dropped:   after.Dropped - before.Dropped,
		Bytes:     after.Bytes - before.Bytes,
	}
}

// cpuSeconds returns the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// stealSeconds returns the time the hypervisor has so far let the guest's
// vCPUs wait for a physical CPU while they had work: the steal column of
// /proc/stat, in 10 ms ticks. 0 where the kernel does not report it.
func stealSeconds() float64 {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100 // USER_HZ
}

// heapAfterGC forces a collection and returns the live heap in bytes.
func heapAfterGC() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// meter measures one measured phase: wall and CPU time, allocation and
// GC activity.
type meter struct {
	mem   runtime.MemStats
	cpu   float64
	steal float64
	start time.Time
}

func startMeter() *meter {
	m := &meter{}
	runtime.ReadMemStats(&m.mem)
	m.cpu = cpuSeconds()
	m.steal = stealSeconds()
	m.start = time.Now()
	return m
}

// stop adds the phase to r.
func (m *meter) stop(r *rep) {
	r.wallS += time.Since(m.start).Seconds()
	r.cpuS += cpuSeconds() - m.cpu
	r.stealS += stealSeconds() - m.steal
	var end runtime.MemStats
	runtime.ReadMemStats(&end)
	r.allocBytes += end.TotalAlloc - m.mem.TotalAlloc
	r.mallocs += end.Mallocs - m.mem.Mallocs
	r.gcCycles += end.NumGC - m.mem.NumGC
	r.gcPauseNs += end.PauseTotalNs - m.mem.PauseTotalNs
}

// prepare is a live workload's set-up: deploy, generate and schedule the
// op stream, run the warmup. It returns the deployment, the ops of the
// measured phase, the wall seconds the set-up took and the host's
// slowdown around it.
func prepare(spec *liveSpec, seed int64, host *hostMeter, tr *liveTrace) (*deployment, []op, float64, float64, error) {
	host.bracket()
	start := time.Now()
	d := deploy(spec, seed)
	ops := genOps(spec, seed)
	measuredOps := ops[:0:0]
	for _, o := range ops {
		o := o
		if o.at >= spec.warmup {
			measuredOps = append(measuredOps, o)
		}
		d.eng.Schedule(o.at, func() {
			if tr == nil {
				d.submit(o)
				return
			}
			tr.inject(func() { d.submit(o) })
		})
		if spec.faults {
			d.eng.Schedule(o.at+clientTimeout, func() { d.retryUnacked(o, 1) })
		}
	}
	if want := int(spec.rate * spec.measured.Seconds()); len(measuredOps) != want {
		return nil, nil, 0, 0, fmt.Errorf("%s: issued %d ops in the measured phase, want rate x duration = %d", spec.name, len(measuredOps), want)
	}
	d.eng.RunFor(spec.warmup)
	el := time.Since(start).Seconds()
	host.bracket()
	return d, measuredOps, el, host.reading().slowdown(cacheNominalWarm), nil
}

// runLive replays spec once on a fresh deployment: set-up and warmup,
// then the measured phase stepped one simulator event at a time with an
// exact stopwatch around each, then the drain and the correctness checks.
// samples is a reusable buffer for the per-event stopwatch readings, host
// the reference meter; a traced rep probes every probeEvery events (0:
// untraced).
func runLive(spec *liveSpec, seed int64, samples *[]int64, host *hostMeter, probeEvery int) (*rep, error) {
	r := &rep{tailBeyond: tailBeyond}
	baseHeap := heapAfterGC()
	var tr *liveTrace
	if probeEvery > 0 {
		tr = &liveTrace{}
		r.trace = tr
	}
	d, measuredOps, setupS, setupSlow, err := prepare(spec, seed, host, tr)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		tr.attach(d, seed, probeEvery, host)
	}
	r.setupS, r.setupSlow = setupS, setupSlow
	runtime.GC()

	end := d.eng.Now().Add(spec.measured)
	warmCore, warmNet := d.cl.Stats(), d.net.Stats()
	buf := (*samples)[:0]
	bufCap := cap(buf)
	m := startMeter()
	if tr == nil {
		// One clock reading per event boundary: sample i is the time
		// between boundary i and i+1, the cost of one event including
		// the queue pop. After the first event and then once per refEvery,
		// one reference pass, outside every sample.
		var prev, nextRef time.Duration
		for {
			at, ok := d.eng.NextEventAt()
			if !ok || at > end {
				break
			}
			d.eng.Step()
			now := time.Since(m.start)
			buf = append(buf, int64(now-prev))
			prev = now
			if now >= nextRef {
				host.pass()
				prev = time.Since(m.start)
				nextRef = prev + refEvery
			}
		}
	} else {
		buf = tr.stepMeasured(end, buf)
	}
	m.stop(r)
	r.host = host.reading()
	r.slow = r.host.slowdown(spec.cacheNominal)
	r.cpuS -= r.host.spent.Seconds()
	if tr != nil {
		r.wallS -= tr.outsideS // the reference passes are part of it
	} else {
		r.wallS -= r.host.spent.Seconds()
	}
	r.dropStolen(1)
	d.eng.Run(end)
	// The deployment's live heap: what is live now, less what was live
	// before it existed and less this rep's growth of the sample buffer.
	if h, own := heapAfterGC(), baseHeap+uint64(cap(buf)-bufCap)*8; h > own {
		r.heapMB = float64(h-own) / (1 << 20)
	}
	*samples = buf
	r.eventsUs = nsToUs(buf)
	r.exact.events = len(buf)
	r.core = statsDelta(d.cl.Stats(), warmCore)
	r.exact.counters = coreCounters(r.core)
	r.exact.net = netDelta(d.net.Stats(), warmNet)

	d.eng.RunFor(spec.drain)
	if err := checkLive(d, measuredOps, seed, &r.exact); err != nil {
		return nil, err
	}
	return r, nil
}

// checkLive runs the correctness gates on a drained deployment and fills
// the virtual-time outcome.
func checkLive(d *deployment, measuredOps []op, seed int64, x *exact) error {
	if p := d.cl.Panics(); len(p) > 0 {
		return fmt.Errorf("%s: %d contained handler panic(s), first: %+v", d.spec.name, len(p), p[0])
	}
	world := d.cl.MaterializeWorld(explore.FirstPolicy, seed, d.timers)
	for _, p := range d.props {
		if !p.Check(world) {
			return fmt.Errorf("%s: property %s fails on the final materialised world", d.spec.name, p.Name)
		}
	}
	x.digest = world.DigestFull()
	x.ops = len(measuredOps)
	lat := make([]float64, 0, len(measuredOps))
	done := make([]float64, 0, len(measuredOps))
	for _, o := range measuredOps {
		l, ok := d.completion(o)
		if !ok {
			x.failed++
			continue
		}
		lat = append(lat, float64(l)/1e6)
		done = append(done, float64(o.at+l)/1e6)
	}
	sort.Float64s(lat)
	sort.Float64s(done)
	x.commitMeanVms = mean(lat)
	x.commitP50Vms = median(lat)
	x.commitP50Delays = x.commitP50Vms / (float64(d.net.Topology().MeanLatency()) / 1e6)
	x.commitP99Vms = percentile(lat, 99)
	for i := 1; i < len(done); i++ {
		if g := done[i] - done[i-1]; g > x.maxGapVms {
			x.maxGapVms = g
		}
	}
	return nil
}
