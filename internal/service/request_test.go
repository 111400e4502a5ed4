package service

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// solveRequestSeeds are the request decoder's corner cases: the ways
// encoding/json matches keys (case folding, escapes, the long s that
// folds to s), duplicate keys, unknown and null fields, nested objects; and the
// two places it is stricter than json.Decoder: triples and trailing data.
var solveRequestSeeds = []string{
	`{"graph":{"n":4,"edges":[[0,1,2],[1,2,3],[2,3,1],[3,0,5]]},"options":{"eps":0.5,"variant":"cover4","mst":"boruvka","root":2},"wait":true,"priority":"interactive","deadline_ms":250}`,
	`{"GRAPH":{"N":4,"Edges":[[0,1,2]]},"Wait":true,"OPTIONS":{"EPS":0.5}}`,
	`{"gr\u0061ph":{"\u006e":4,"edg\u0065s":[[0,1,2]]},"w\u0061it":true}`,
	"{\"graph\":{\"n\":4,\"edge\u017f\":[[0,1,2]]},\"deadline_m\u017f\":7}",
	`{"graph":{"n":4,"edges":[[0,1,2]]},"graph":{"n":5}}`,
	`{"graph":{"n":4,"edges":[[0,1,2]]},"graph":{"edges":null}}`,
	`{"graph":{"edges":[[0,1,2]],"edges":[[1,2,3]]},"wait":true,"wait":false}`,
	`{"graph":{"n":4,"edges":[[0,1,2]]},"graph":null}`,
	`{"graph":null,"options":null,"wait":null,"priority":null,"deadline_ms":null}`,
	`{"graph":{"n":4,"edges":[[0,1,2]],"extra":{"edges":[[9]]}},"unknown":[{"graph":"x"},"}",["]"]],"x":-1.5e3}`,
	`{"options":{"eps":0.25,"variant":"cover2","nested":{"deep":[1,{"a":null}]}},"graph":{"n":3,"edges":[]}}`,
	` { "graph" : { "n" : 4 , "edges" : [ [ 0 , 1 , 2 ] ] } , "wait" : true } `,
	`{}`,
	`null`,
	`[]`,
	`"graph"`,
	`{"graph":[[0,1,2]]}`,
	`{"graph":{"n":4,"edges":"[[0,1,2]]"}}`,
	`{"graph":{"n":"4"}}`,
	`{"wait":"true"}`,
	`{"graph":{"n":4,"edges":[[0,1]]}}`,
	`{"graph":{"n":4,"edges":[[0,1,2,3]]}}`,
	`{"graph":{"n":4,"edges":[[0,1,null]]}}`,
	`{"graph":{"n":4,"edges":[[0,1,2]],"edges":[[0,1]]}}`,
	`{"graph":{"n":4,"edges":[[0,1,2]]}} garbage`,
	`{"graph":{"n":4,"edges":[[0,1,2]]}}{"x":1}`,
	`{"graph":{"n":4,"edges":[[0,1,2]]}}]`,
	`{"graph":{"n":4,"edges":[[0,1,2]]}`,
	`{"graph":{"n":4,"edges":[[0,1,2]]},}`,
	`{"graph":{"n":4,,"edges":[]}}`,
	`{"graph" {"n":4}}`,
	`{"gr\aph":{}}`,
	"{\"graph\":{\"n\":4},\"x\":\"a\nb\"}",
	`{"x":tru}`,
	`{"x":[1,}`,
}

// stdSolveRequest is SolveRequest in plain encoding/json types.
type stdSolveRequest struct {
	Graph struct {
		N     int        `json:"n"`
		Edges [][3]int64 `json:"edges"`
	} `json:"graph"`
	Options    OptionsWire `json:"options"`
	Wait       bool        `json:"wait,omitempty"`
	Priority   string      `json:"priority,omitempty"`
	DeadlineMS int64       `json:"deadline_ms,omitempty"`
}

// tripleCheck decodes an edges value by noting in loose whether it is
// anything but null or an array of three-number arrays.
type tripleCheck struct{ loose *bool }

func (c tripleCheck) UnmarshalJSON(data []byte) error {
	if !exactTriples(data) {
		*c.loose = true
	}
	return nil
}

// looseEdges reports whether data decodes, with encoding/json, to a
// request one of whose edges values is not exact triples: the one-pass
// decoder refuses those, plain encoding/json may not.
func looseEdges(data []byte) bool {
	var loose bool
	var v struct {
		Graph struct {
			Edges tripleCheck `json:"edges"`
		} `json:"graph"`
	}
	v.Graph.Edges.loose = &loose
	json.Unmarshal(data, &v)
	return loose
}

// FuzzSolveRequest checks the one-pass request decoder against
// encoding/json on whole bodies. Against json.Unmarshal into the same
// fields (edges through EdgeList), it agrees exactly: the same bodies
// accepted, with the same values. Against plain encoding/json through
// json.Decoder, as the handler decoded before, every body it accepts
// decodes to the same values, and it refuses more only where documented:
// data after the object, and edges that are not exact triples.
func FuzzSolveRequest(f *testing.F) {
	for _, s := range solveRequestSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var got SolveRequest
		gotErr := got.UnmarshalJSON(data)

		var want plainSolveRequest
		wantErr := json.Unmarshal(data, &want)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%q: decoder error %v, json.Unmarshal error %v", data, gotErr, wantErr)
		}
		if gotErr == nil && !reflect.DeepEqual(got, SolveRequest(want)) {
			t.Fatalf("%q: decoder gives %+v, json.Unmarshal %+v", data, got, want)
		}

		var std stdSolveRequest
		stdErr := json.NewDecoder(bytes.NewReader(data)).Decode(&std)
		switch {
		case gotErr == nil && stdErr != nil:
			t.Fatalf("decoder accepted %q, encoding/json refuses it: %v", data, stdErr)
		case gotErr == nil:
			g := got.Graph
			if g.N != std.Graph.N || (g.Edges == nil) != (std.Graph.Edges == nil) || !slices.Equal(g.Edges, std.Graph.Edges) ||
				got.Options != std.Options || got.Wait != std.Wait || got.Priority != std.Priority || got.DeadlineMS != std.DeadlineMS {
				t.Fatalf("%q: decoder gives %+v, encoding/json %+v", data, got, std)
			}
		case stdErr == nil && json.Valid(data) && !looseEdges(data):
			t.Fatalf("decoder refused %q (%v), encoding/json decodes it to %+v", data, gotErr, std)
		}
	})
}

// TestSolveRequestDecode pins what the seeds say about key matching and
// duplicates, and that a refused body carries encoding/json's error text.
func TestSolveRequestDecode(t *testing.T) {
	for _, tc := range []struct {
		body string
		want SolveRequest
	}{
		{`{"GRAPH":{"N":4,"Edges":[[0,1,2]]},"Wait":true,"OPTIONS":{"EPS":0.5}}`,
			SolveRequest{Graph: GraphWire{N: 4, Edges: EdgeList{{0, 1, 2}}}, Wait: true, Options: OptionsWire{Eps: 0.5}}},
		{"{\"gr\\u0061ph\":{\"n\":4,\"edge\u017f\":[[0,1,2]]}}",
			SolveRequest{Graph: GraphWire{N: 4, Edges: EdgeList{{0, 1, 2}}}}},
		{`{"graph":{"n":4,"edges":[[0,1,2]]},"graph":{"n":5}}`,
			SolveRequest{Graph: GraphWire{N: 5, Edges: EdgeList{{0, 1, 2}}}}},
		{`{"graph":{"n":4,"edges":[[0,1,2]]},"graph":{"edges":null},"wait":true,"wait":null}`,
			SolveRequest{Graph: GraphWire{N: 4}, Wait: true}},
		{`{"unknown":{"graph":{"edges":"x"}},"graph":{"n":3,"edges":[]}}`,
			SolveRequest{Graph: GraphWire{N: 3, Edges: EdgeList{}}}},
		{`null`, SolveRequest{}},
	} {
		var got SolveRequest
		if err := got.UnmarshalJSON([]byte(tc.body)); err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: decoded %+v, %v; want %+v", tc.body, got, err, tc.want)
		}
	}
	for body, want := range map[string]string{
		`{"graph":{"n":4,"edges":[[0,1,2]]}} x`: "invalid character 'x' after top-level value",
		`{"graph":{"n":4,"edges":[[0,1]]}}`:     "edges[0]: want [u, v, w] integer triple",
		`{"graph":{"n":4,"edges":[[0,01,2]]}}`:  "invalid character '1' after array element",
		`{"graph":{"n":4,"edges":[[0,1`:         "unexpected EOF",
		`{"deadline_ms":1.5}`:                   "json: cannot unmarshal number 1.5 into Go struct field SolveRequest.deadline_ms of type int64",
	} {
		var r SolveRequest
		if err := r.UnmarshalJSON([]byte(body)); err == nil || err.Error() != want {
			t.Errorf("%s: error %v, want %q", body, err, want)
		}
	}
}

// TestAppendJobResponse checks the hand-written response envelope against
// json.NewEncoder(w).Encode byte for byte, over every optional field and
// the strings and floats encoding/json escapes or formats specially.
func TestAppendJobResponse(t *testing.T) {
	result := json.RawMessage(`{"edges":[[0,1,2]],"weight":2,"lower_bound":1.5}`)
	strs := append(slices.Clone(hostileIDs), "", "\x00\x1f\x7f", "\u00e9\U0001F600", strings.Repeat("<&>", 40))
	floats := []float64{0, 1, -2.5, 1e-7, 1.5e-7, 1e-6, 123456.789, 1e20, 1e21, 3.4e38, math.SmallestNonzeroFloat64, math.MaxFloat64}
	for i, s := range strs {
		for j, f := range floats {
			r := JobResponse{JobID: s, Status: StatusDone, ElapsedMS: f}
			if (i+j)%2 == 0 {
				r.Phase, r.Cached, r.Result = s, true, result
			}
			if (i+j)%3 == 0 {
				r.RequestID, r.Error, r.Status = s, "solve failed: "+s, StatusFailed
			}
			var want bytes.Buffer
			if err := json.NewEncoder(&want).Encode(r); err != nil {
				t.Fatal(err)
			}
			if got := appendJobResponse(nil, r); !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("%+v:\n got %q\nwant %q", r, got, want.Bytes())
			}
		}
	}

	// Every field set, whatever fields JobResponse has.
	var full JobResponse
	v := reflect.ValueOf(&full).Elem()
	for i := range v.NumField() {
		switch f := v.Field(i); f.Kind() {
		case reflect.String:
			f.SetString("x")
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Float64:
			f.SetFloat(1.5)
		case reflect.Slice:
			f.SetBytes([]byte(`[1]`))
		default:
			t.Fatalf("JobResponse.%s is a %s: teach appendJobResponse and this test", v.Type().Field(i).Name, f.Kind())
		}
	}
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(full); err != nil {
		t.Fatal(err)
	}
	if got := appendJobResponse(nil, full); !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("every field set:\n got %q\nwant %q", got, want.Bytes())
	}
}

// TestReadBody reads a body of known length into its presized buffer and
// one of unknown length through growth, byte for byte.
func TestReadBody(t *testing.T) {
	want := bytes.Repeat([]byte("0123456789"), 300)
	for _, r := range []*http.Request{
		httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(want)),
		httptest.NewRequest(http.MethodPost, "/v1/solve", io.MultiReader(bytes.NewReader(want))),
	} {
		got, err := ReadBody(httptest.NewRecorder(), r)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("Content-Length %d: read %d bytes, %v; want the %d sent", r.ContentLength, len(got), err, len(want))
		}
	}
}
