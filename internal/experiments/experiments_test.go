package experiments

import (
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tb := &Table{ID: "X", Title: "t", Columns: []string{"a", "bb"},
		Rows: [][]string{{"1", "2"}}, Notes: []string{"n"}}
	out := tb.Render()
	for _, want := range []string{"== X: t ==", "a", "bb", "note: n"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestFamilies(t *testing.T) {
	for _, fam := range []string{"er", "grid", "ring", "treeleafcycle", "random"} {
		g, err := family(fam, 40, 1)
		if err != nil {
			t.Fatalf("%s: %v", fam, err)
		}
		if !g.TwoEdgeConnected() {
			t.Fatalf("%s instance not 2EC", fam)
		}
	}
	if _, err := family("nope", 10, 1); err == nil {
		t.Fatal("unknown family accepted")
	}
}

func TestE1Small(t *testing.T) {
	tb, err := E1([]int{32}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 4 {
		t.Fatalf("E1 rows = %d", len(tb.Rows))
	}
}

func TestE2Small(t *testing.T) {
	tb, err := E2([]int{24}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 1 {
		t.Fatalf("E2 rows = %d", len(tb.Rows))
	}
}

func TestE5E9Small(t *testing.T) {
	if _, err := E5([]int{32}, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := E9(60, 3); err != nil {
		t.Fatal(err)
	}
}

func TestE7E10Small(t *testing.T) {
	tb, err := E7([]int{24}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Fatalf("E7 rows = %d", len(tb.Rows))
	}
	tb, err = E10([]int{24}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tb.Rows {
		if r[3] != "true" || r[4] != "true" {
			t.Fatalf("Lemma 4.18 violated: %v", r)
		}
	}
}

func TestE12Small(t *testing.T) {
	tb, err := E12(2, 30, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tb.Rows {
		if r[3] != "0" || r[4] != "0" {
			t.Fatalf("lemma 5.4/5.5 errors: %v", r)
		}
	}
}

// TestTablesIdenticalAcrossWorkers is the reproduction's determinism
// contract: every E1–E12 table renders byte-identically whether its cells
// run on one worker or on four.
func TestTablesIdenticalAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("renders all twelve tables twice")
	}
	defer func(w int) { Workers = w }(Workers)
	render := func(workers int) []string {
		Workers = workers
		var out []string
		for _, sp := range Specs() {
			tb, err := sp.Run(1)
			if err != nil {
				t.Fatalf("%s at %d workers: %v", sp.ID, workers, err)
			}
			out = append(out, tb.Render())
		}
		return out
	}
	one, four := render(1), render(4)
	for i, sp := range Specs() {
		if one[i] != four[i] {
			t.Errorf("%s renders differently at 1 and 4 workers:\n%s\nvs\n%s", sp.ID, one[i], four[i])
		}
	}
}
