package bench

import (
	"bytes"
	"testing"

	"capuchin/internal/obs"
)

// TestReplayAcrossJobs pins the replay contract: every rendered
// artifact is byte-identical whether its cells run serially or
// eight-wide. Each side builds a fresh runner, so nothing is served
// from a shared cache.
func TestReplayAcrossJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every case twice")
	}
	text := func(w *bytes.Buffer, tbls ...*Table) {
		for _, tbl := range tbls {
			if err := tbl.WriteText(w); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, tc := range []struct {
		name   string
		render func(o Options, w *bytes.Buffer) error
	}{
		{"scale", func(o Options, w *bytes.Buffer) error {
			o.Devices = []int{1, 2}
			text(w, Scaling(o))
			return nil
		}},
		{"arena", func(o Options, w *bytes.Buffer) error {
			text(w, Arena(o))
			return nil
		}},
		{"generators", func(o Options, w *bytes.Buffer) error {
			text(w, Table2(o), Fig8a(o))
			return nil
		}},
		{"runner-matrix", func(o Options, w *bytes.Buffer) error {
			w.WriteString(renderMatrix(NewRunner(o.Jobs).RunAll(matrixConfigs())))
			return nil
		}},
		{"fleet", func(o Options, w *bytes.Buffer) error {
			fc, err := FleetScenarios(o, FleetOptions{})
			if err != nil {
				return err
			}
			text(w, FleetTableFrom(fc))
			return fc.WriteJSON(w)
		}},
		{"fleet-observed", func(o Options, w *bytes.Buffer) error {
			col, met := obs.NewCollector(), obs.NewMetrics()
			if _, err := FleetObserved(o, FleetOptions{Jobs: 60, Devices: 4}, col, met); err != nil {
				return err
			}
			if err := met.WritePrometheus(w); err != nil {
				return err
			}
			if err := obs.WriteJSONL(w, col.Events()); err != nil {
				return err
			}
			return obs.WriteDecisionsJSONL(w, col.Decisions())
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var serial, parallel bytes.Buffer
			for _, side := range []struct {
				jobs int
				w    *bytes.Buffer
			}{{1, &serial}, {8, &parallel}} {
				o := goldenOpts()
				o.Jobs = side.jobs
				if err := tc.render(o, side.w); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(serial.Bytes(), parallel.Bytes()) {
				t.Errorf("%s differs between -jobs 1 and -jobs 8:\n--- jobs=1\n%s--- jobs=8\n%s",
					tc.name, serial.Bytes(), parallel.Bytes())
			}
		})
	}
}
