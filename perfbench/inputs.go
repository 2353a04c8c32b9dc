package main

import (
	"fmt"
	"math"
	"math/rand/v2"

	"capuchin/internal/bench"
	"capuchin/internal/exec"
	"capuchin/internal/hw"
	"capuchin/internal/models"
	"capuchin/internal/serve"
)

// Every input below is a pure function of the seed. The strata (which
// models meet which systems) are fixed so that the cost of one
// repetition barely moves between seeds; the seed draws the values
// inside each stratum (device memory, batch multiples, orders, which
// cells take the dynamic or cluster path, the serve request mix).

const (
	// defaultSeed is the seed the benchmark is tuned on; heldOutSeed is
	// reserved for confirming a claimed gain and is never tuned against.
	defaultSeed = 1
	heldOutSeed = 20200316

	mib = int64(1) << 20
)

// newRand returns the generator for one input family, so adding draws to
// one family never shifts another's.
func newRand(seed uint64, family string) *rand.Rand {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(family); i++ {
		h = (h ^ uint64(family[i])) * 1099511628211
	}
	return rand.New(rand.NewPCG(seed, h))
}

// latin returns n positions in [0, 1), one inside each of n equal
// slices, in a seeded order: a Latin-hypercube draw. The positions move
// with the seed but their mean barely does, so neither does the cost of
// the inputs drawn from them.
func latin(rng *rand.Rand, n int) []float64 {
	pos := make([]float64, n)
	for i, k := range rng.Perm(n) {
		pos[i] = (float64(k) + rng.Float64()) / float64(n)
	}
	return pos
}

// memAt is the device memory at position u of [lo, hi] GiB, on a
// 128 MiB grid.
func memAt(u, lo, hi float64) int64 {
	return int64(lo*1024)*mib + int64(math.Round(u*(hi-lo)*8))*128*mib
}

// device is the paper's P100 with memBytes of device memory.
func device(memBytes int64) hw.DeviceSpec { return hw.P100().WithMemory(memBytes) }

// search is one max-batch search of the sweep workload.
type search struct {
	Model  string
	System bench.System
	Mem    int64
}

func (s search) config() bench.RunConfig {
	return bench.RunConfig{Model: s.Model, System: s.System, Device: device(s.Mem)}
}

func (s search) String() string {
	return fmt.Sprintf("%s/%s@%dMiB", s.Model, s.System, s.Mem/mib)
}

// sweepStrata are the seeded searches: (model, system, device-memory
// band in GiB), the most expensive first so the closed loop's last
// searches are short. A search's probe ladder doubles the batch, so its
// cost jumps when the maximum batch crosses a power of two; each band is
// narrow and, for the expensive searches, sits between two such
// crossings, so the seed moves the inputs but barely the cost.
var sweepStrata = []struct {
	model  string
	system bench.System
	lo, hi float64
}{
	{"gru", bench.SystemTF, 5, 5.25},
	{"lstm", bench.SystemTF, 6, 6.25},
	{"inceptionv3", bench.SystemCapuchin, 1.25, 1.375},
	{"resnet50", bench.SystemCapuchin, 1.25, 1.5},
	{"bert", bench.SystemCapuchin, 1.5, 1.75},
	{"mobilenetv2", bench.SystemCapuchin, 0.75, 1},
	{"inceptionv3", bench.SystemSuperNeurons, 1.5, 1.75},
	{"resnet50", bench.SystemChunk, 1.25, 1.5},
	{"densenet", bench.SystemTF, 2.25, 2.5},
	{"resnet50", bench.SystemVDNN, 1.25, 1.5},
	{"bert", bench.SystemTF, 3, 3.25},
	{"mobilenetv2", bench.SystemOpenAIMemory, 1.25, 1.5},
	{"inceptionv3", bench.SystemTF, 1.75, 2},
	{"mobilenetv2", bench.SystemTF, 1.25, 1.5},
	{"resnet50", bench.SystemTF, 1.5, 1.75},
	{"alexnet", bench.SystemCapuchin, 0.75, 1},
	{"alexnet", bench.SystemOpenAISpeed, 0.75, 1},
	{"vgg16", bench.SystemCapuchin, 1.25, 1.5},
	{"alexnet", bench.SystemTF, 0.75, 1},
	{"vgg16", bench.SystemTF, 2, 2.25},
}

// sweepRevisits is how many seeded searches are repeated verbatim later
// in the sweep, so their probes are served from the runner cache.
const sweepRevisits = 4

// paperModels are the models carrying the paper's Table 2 TF-ori
// maximum batch, in registry order.
func paperModels() []string {
	var out []string
	for _, name := range models.Names() {
		if spec, err := models.Get(name); err == nil && spec.PaperMaxBatchTF > 0 {
			out = append(out, name)
		}
	}
	return out
}

// sweepInputs returns the sweep's searches in execution order: the
// TF-ori searches on the paper's 16 GiB P100 for every Table 2 model,
// then one search per stratum at a seeded memory size, then
// sweepRevisits seeded repeats of earlier searches.
func sweepInputs(seed uint64) []search {
	rng := newRand(seed, "sweep")
	var first []search
	for _, m := range paperModels() {
		first = append(first, search{Model: m, System: bench.SystemTF, Mem: 16 * hw.GiB})
	}
	pos := latin(rng, len(sweepStrata))
	for i, st := range sweepStrata {
		first = append(first, search{Model: st.model, System: st.system, Mem: memAt(pos[i], st.lo, st.hi)})
	}
	// The repeats come last, once their originals have (almost always)
	// finished: a repeat that coalesced into its in-flight original
	// would wait out the original's time instead of hitting the cache.
	out := append([]search(nil), first...)
	for _, i := range rng.Perm(len(first))[:sweepRevisits] {
		out = append(out, first[i])
	}
	return out
}

// trainCell is one cell of the train workload. Its batch is Factor times
// TF-ori's maximum batch for (Model, Mem), resolved during set-up.
type trainCell struct {
	Model        string
	System       bench.System
	Mem          int64
	Factor       float64
	Iterations   int
	Schedule     string
	ScheduleSeed uint64
	Devices      int
}

// config is the cell's run configuration at the resolved TF-ori maximum.
func (c trainCell) config(tfMax int64) bench.RunConfig {
	batch := int64(float64(tfMax) * c.Factor)
	if batch <= tfMax {
		batch = tfMax + 1
	}
	return bench.RunConfig{
		Model: c.Model, Batch: batch, System: c.System, Device: device(c.Mem),
		Iterations: c.Iterations, Schedule: c.Schedule, ScheduleSeed: c.ScheduleSeed,
		Devices: c.Devices,
	}
}

// trainModels and the device memory (GiB) of their train cells.
var trainModels = []struct {
	model string
	mem   float64
}{
	{"resnet50", 3.5},
	{"inceptionv3", 3.5},
	{"mobilenetv2", 2.5},
	{"bert", 3.5},
}

const trainIterations = 20

// managedSystems lists every registered memory-managing policy: all but
// the unmanaged TF-ori baseline.
func managedSystems() []bench.System {
	var out []bench.System
	for _, name := range exec.PolicyNames() {
		if name != string(bench.SystemTF) {
			out = append(out, bench.System(name))
		}
	}
	return out
}

// trainInputs returns one cell per (managed policy, model), each at a
// seeded batch 1.2-1.3x TF-ori's maximum, in a seeded order.
func trainInputs(seed uint64) []trainCell {
	rng := newRand(seed, "train")
	systems := managedSystems()
	factors := latin(rng, len(systems)*len(trainModels))
	var cells []trainCell
	for _, sys := range systems {
		for _, m := range trainModels {
			cells = append(cells, trainCell{
				Model: m.model, System: sys, Mem: int64(m.mem * float64(hw.GiB)),
				Factor:     1.2 + 0.1*factors[len(cells)],
				Iterations: trainIterations,
			})
		}
	}
	// Per model, one cell of a seeded graph-agnostic policy follows a
	// dynamic shape schedule and one of a seeded graph-keyed policy runs
	// on 2 devices, so the mix of models on each path never changes.
	for _, m := range trainModels {
		var agnostic, keyed []int
		for i, c := range cells {
			if c.Model != m.model {
				continue
			}
			if spec, _ := exec.LookupPolicy(string(c.System)); spec.GraphAgnostic {
				agnostic = append(agnostic, i)
			} else {
				keyed = append(keyed, i)
			}
		}
		dyn := &cells[agnostic[rng.IntN(len(agnostic))]]
		dyn.Schedule = models.ScheduleBatch
		if spec, _ := models.Get(m.model); spec.BuildSeq != nil {
			dyn.Schedule = models.ScheduleMixed
		}
		dyn.ScheduleSeed = 1 + rng.Uint64N(1<<20)
		cells[keyed[rng.IntN(len(keyed))]].Devices = 2
	}
	rng.Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
	return cells
}

// tfMaxKey identifies one TF-ori calibration search of the train cells.
type tfMaxKey struct {
	Model string
	Mem   int64
}

// serveSession is one client's use of one run, following the client
// flow the repository's README documents for capuchin-serve: submit a
// config, long-poll its result with ?wait=1, stream its events and fetch
// its Chrome trace. A hit session then resubmits the same, now
// completed, config and fetches the cached result; a scrape session then
// reads /v1/stats and /metrics, as a monitor polling the daemon would.
type serveSession struct {
	Req    serve.RunRequest
	Hit    bool
	Scrape bool
}

// The sessions of one repetition. The clients share them, so the sample
// counts do not depend on how many clients there are. The repository
// records no hit rate of real callers (its load generator's 99.6% dedup
// rate comes from a 16-cell menu), so hits and scrapes are kept to a
// small share: just enough hits for a latency tail over the traced
// passes.
const (
	serveSessions = 48 // a multiple of len(serveMenu) x len(serveSystems)
	serveHits     = 12 // a multiple of len(serveMenu)
	serveScrapes  = 4
)

// serveMenu holds the fast models cold configs are drawn from, with
// their batch bands.
var serveMenu = []struct {
	model  string
	lo, hi int64
}{
	{"alexnet", 16, 128},
	{"mobilenetv2", 8, 48},
	{"resnet50", 8, 32},
	{"vgg16", 8, 24},
}

var (
	serveSystems = []string{"capuchin", "tf-ori", "chunk"}
	serveMems    = []float64{4, 8, 16}
)

// serveInputs returns the sessions of one repetition in the order the
// clients take them. Every config is distinct, so each cold submission
// is one the server has never seen within a repetition. Every menu model
// is submitted equally often, at Latin-hypercube batches, with every
// system and every memory size equally often, and has the same number
// of hit sessions; the seed draws the values and the order.
func serveInputs(seed uint64) []serveSession {
	rng := newRand(seed, "serve")
	seen := make(map[serve.RunRequest]bool)
	perModel := serveSessions / len(serveMenu)
	var out []serveSession
	for _, m := range serveMenu {
		base := len(out)
		sysOff, memOff := rng.IntN(len(serveSystems)), rng.IntN(len(serveMems))
		for j, u := range latin(rng, perModel) {
			rr := serve.RunRequest{
				Model:  m.model,
				Batch:  m.lo + int64(u*float64(m.hi-m.lo+1)),
				System: serveSystems[(j+sysOff)%len(serveSystems)],
				MemGiB: serveMems[(j+j/len(serveSystems)+memOff)%len(serveMems)],
			}
			for seen[rr] {
				rr.Batch++
			}
			seen[rr] = true
			out = append(out, serveSession{Req: rr})
		}
		for _, k := range rng.Perm(perModel)[:serveHits/len(serveMenu)] {
			out[base+k].Hit = true
		}
	}
	for _, k := range rng.Perm(len(out))[:serveScrapes] {
		out[k].Scrape = true
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// fleetStreams is how many arrival streams one repetition of the fleet
// workload schedules: a stream's scheduling cost varies by about a
// third between seeds, and a repetition averages it over these.
const fleetStreams = 40

// fleetSeeds maps the benchmark seed onto the arrival streams' seeds
// (never 0, which the fleet experiment reads as "default").
func fleetSeeds(seed uint64) []uint64 {
	rng := newRand(seed, "fleet")
	out := make([]uint64, fleetStreams)
	for i := range out {
		out[i] = rng.Uint64() | 1
	}
	return out
}
