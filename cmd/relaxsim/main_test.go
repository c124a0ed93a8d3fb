package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunSingleCell(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{
		"-algo", "mis", "-vertices", "500", "-edges", "2000", "-k", "8", "-trials", "1", "-seed", "3",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"algorithm=mis", "k=8", "500", "extra="} {
		if !strings.Contains(got, want) {
			t.Fatalf("output missing %q:\n%s", want, got)
		}
	}
}

func TestRunSweeps(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{
		"-algo", "coloring", "-sweep-n", "200,400", "-edges", "800", "-sweep-k", "2,4", "-trials", "1",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"k=2", "k=4", "200", "400", "coloring"} {
		if !strings.Contains(got, want) {
			t.Fatalf("output missing %q:\n%s", want, got)
		}
	}
}

func TestRunAllAlgorithmsSmall(t *testing.T) {
	for _, algo := range []string{"mis", "matching", "coloring", "listcontract", "shuffle"} {
		var out bytes.Buffer
		err := run([]string{"-algo", algo, "-vertices", "200", "-edges", "500", "-k", "4", "-trials", "1"}, &out)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if !strings.Contains(out.String(), "algorithm="+algo) {
			t.Fatalf("%s: header missing", algo)
		}
	}
}

func TestRunErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
		// want, when set, must appear in the error: the flag at fault.
		want string
	}{
		{"unknown flag", []string{"-bogus"}, ""},
		{"bad sweep-k", []string{"-sweep-k", "4,x"}, "-sweep-k"},
		{"bad sweep-n", []string{"-sweep-n", "abc"}, "-sweep-n"},
		{"unknown algorithm", []string{"-algo", "frobnicate", "-vertices", "100", "-edges", "100"}, ""},
		{"dynamic workload", []string{"-algo", "sssp", "-vertices", "100", "-edges", "100"}, ""},
		{"unknown scheduler", []string{"-sched", "magic", "-vertices", "100", "-edges", "100"}, ""},
		{"too many edges", []string{"-vertices", "10", "-edges", "1000"}, ""},
		{"zero k", []string{"-vertices", "100", "-edges", "200", "-k", "0", "-trials", "1"}, "-k"},
		{"negative k", []string{"-vertices", "100", "-edges", "200", "-k", "-3", "-trials", "1"}, "-k"},
		{"zero in sweep-k", []string{"-vertices", "100", "-edges", "200", "-sweep-k", "0,8", "-trials", "1"}, "-sweep-k"},
		{"zero trials", []string{"-vertices", "100", "-edges", "200", "-trials", "0"}, "-trials"},
		{"zero in sweep-n", []string{"-sweep-n", "0,100", "-edges", "200", "-trials", "1"}, "-sweep-n"},
		{"negative sweep-n", []string{"-sweep-n", "-5", "-edges", "0", "-trials", "1"}, "-sweep-n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			err := run(tc.args, &out)
			if err == nil {
				t.Fatalf("args %v accepted:\n%s", tc.args, out.String())
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("args %v: error %q does not name %s", tc.args, err, tc.want)
			}
		})
	}
}

func TestParseInts(t *testing.T) {
	got, err := parseInts("1, 2,3", "-sweep-k", nil)
	if err != nil || len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("parseInts = %v, %v", got, err)
	}
	got, err = parseInts("", "-sweep-k", []int{7})
	if err != nil || len(got) != 1 || got[0] != 7 {
		t.Fatalf("fallback = %v, %v", got, err)
	}
	for _, bad := range []string{"1,x", "0", "4,-1"} {
		if _, err := parseInts(bad, "-sweep-k", nil); err == nil {
			t.Fatalf("invalid input %q accepted", bad)
		}
	}
}

func TestRunTable1Tiny(t *testing.T) {
	if testing.Short() {
		t.Skip("table1 grid is slow")
	}
	var out bytes.Buffer
	if err := run([]string{"-table1", "-trials", "1"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"Table 1", "every trial verified", "k=64", "10000"} {
		if !strings.Contains(got, want) {
			t.Fatalf("table1 output missing %q", want)
		}
	}
}
