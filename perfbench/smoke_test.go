package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"

	"regimap/internal/exact"
)

// benchmarkFile is the part of BENCHMARK.json the smoke test checks against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDefJSON `json:"end_to_end"`
	PerLayer []metricDefJSON `json:"per_layer"`
}

type metricDefJSON struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(blob, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestBenchmarkFileMatchesMetrics pins BENCHMARK.json to the metric lists
// the program reports, so neither can change without the other.
func TestBenchmarkFileMatchesMetrics(t *testing.T) {
	bf := readBenchmarkFile(t)
	check := func(kind string, got []metricDefJSON, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program reports %d", kind, len(got), len(want))
		}
		for i := 0; i < len(got) && i < len(want); i++ {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit || got[i].Better != want[i].better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the program %+v", kind, i, got[i], want[i])
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEndMetrics)
	check("per_layer", bf.PerLayer, layerMetrics())
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("BENCHMARK.json workloads %v, the program has %v", names, workloadNames())
	}
}

// TestSmoke runs every workload at its smallest size in both modes and
// checks that each metric named in BENCHMARK.json is printed with its unit
// and that the correctness gate ran and passed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("maps kernels for tens of seconds")
	}
	bf := readBenchmarkFile(t)
	t.Setenv("TMPDIR", t.TempDir())
	state := t.TempDir()
	for _, w := range bf.Workloads {
		for _, mode := range []struct {
			trace string
			want  []metricDefJSON
		}{{"0", bf.EndToEnd}, {"1", bf.PerLayer}} {
			t.Run(w.Name+"/trace"+mode.trace, func(t *testing.T) {
				var out, errOut bytes.Buffer
				code := run([]string{"--workload", w.Name, "--seed", "3", "--seconds", "1", "--trace", mode.trace,
					"--smoke", "--state", state}, &out, &errOut)
				if code != 0 {
					t.Fatalf("exit %d: %s", code, errOut.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var stamp struct {
					Stamp struct {
						Checks int `json:"checks"`
					} `json:"stamp"`
				}
				if err := json.Unmarshal([]byte(lines[0]), &stamp); err != nil {
					t.Fatal(err)
				}
				if stamp.Stamp.Checks == 0 {
					t.Error("the correctness gate checked no answer")
				}
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
				}
				if len(res.Metrics) != len(mode.want) {
					t.Errorf("printed %d metrics, want %d", len(res.Metrics), len(mode.want))
				}
				for _, d := range mode.want {
					m, ok := res.Metrics[d.Name]
					if !ok || m.Unit != d.Unit {
						t.Errorf("metric %s: printed %+v (present %v), want unit %q", d.Name, m, ok, d.Unit)
					}
				}
				if mode.trace == "0" {
					for name, m := range res.Metrics {
						if m.Value == 0 {
							t.Errorf("end-to-end metric %s reads 0", name)
						}
					}
				}
			})
		}
	}
}

// TestCertificateCheck feeds the exact-certificate gate a consistent
// certificate and three broken ones.
func TestCertificateCheck(t *testing.T) {
	good := exact.Certificate{MII: 2, BestII: 4, OptimalII: 4, ProvenLowerBound: 4, PerII: []exact.Verdict{
		{II: 2, Status: "unsat"}, {II: 3, Status: "unsat"}, {II: 4, Status: "sat"}}}
	gap := good
	gap.PerII = []exact.Verdict{{II: 2, Status: "unsat"}, {II: 3, Status: "unknown"}, {II: 4, Status: "sat"}}
	gap.ProvenLowerBound = 3
	lowBound := good
	lowBound.ProvenLowerBound = 5
	noClaim := good
	noClaim.OptimalII = 0
	for _, tc := range []struct {
		name     string
		c        exact.Certificate
		proven   bool
		failures int
	}{{"good", good, true, 0}, {"optimal across a gap", gap, false, 1}, {"bound above BestII", lowBound, false, 1}, {"gapless but unclaimed", noClaim, false, 1}} {
		p := newPass(false)
		if got := checkCertificate(p, "k", tc.c); got != tc.proven || p.failed != tc.failures {
			t.Errorf("%s: proven %v with %d failures %v, want %v with %d", tc.name, got, p.failed, p.failures, tc.proven, tc.failures)
		}
	}
}
