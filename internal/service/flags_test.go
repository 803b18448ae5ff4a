package service

import (
	"flag"
	"strings"
	"testing"
)

// TestBindMask checks that each selector registers exactly its canonical
// flags, so a command binding a subset neither gains surprise flags nor
// loses the ones it historically had.
func TestBindMask(t *testing.T) {
	cases := []struct {
		name string
		mask FlagMask
		want []string
	}{
		{"backend only", FlagBackend, []string{"backend"}},
		{"formal set", FlagFormal, []string{"formal", "formal-depth", "induction"}},
		{"cli set", FlagBackend | FlagCover | FlagFormal, []string{"backend", "cover", "formal", "formal-depth", "induction"}},
		{"all", FlagAll, []string{"backend", "cover", "formal", "formal-depth", "induction", "workers"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := flag.NewFlagSet("test", flag.ContinueOnError)
			Bind(fs, tc.mask)
			var got []string
			fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
			if len(got) != len(tc.want) {
				t.Fatalf("registered %v, want %v", got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("registered %v, want %v", got, tc.want)
				}
			}
		})
	}
}

// TestFlagsOptions checks the parse-then-validate round trip: canonical
// defaults, explicit values, and rejection with the offending flag named.
func TestFlagsOptions(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		want    Options
		wantErr string
	}{
		{"defaults", nil, Options{Backend: "compiled"}, ""},
		{"full set", []string{"-backend=event", "-cover", "-formal", "-induction", "-formal-depth=32", "-workers=4"},
			Options{Backend: "event", Cover: true, Formal: true, Induction: true, FormalDepth: 32, Workers: 4}, ""},
		{"bad backend", []string{"-backend=ncsim"}, Options{}, "backend"},
		{"bad depth", []string{"-formal-depth=-2"}, Options{}, "formal-depth"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := flag.NewFlagSet("test", flag.ContinueOnError)
			f := Bind(fs, FlagAll)
			if err := fs.Parse(tc.args); err != nil {
				t.Fatalf("parse: %v", err)
			}
			got, err := f.Options()
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want mention of %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("valid flags rejected: %v", err)
			}
			if got != tc.want {
				t.Fatalf("Options = %+v, want %+v", got, tc.want)
			}
		})
	}
}

// TestUnboundKnobsZero checks that knobs outside the mask resolve to the
// usable zero value (compiled backend via the unparsed default).
func TestUnboundKnobsZero(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := Bind(fs, FlagWorkers)
	if err := fs.Parse([]string{"-workers=2"}); err != nil {
		t.Fatalf("parse: %v", err)
	}
	o, err := f.Options()
	if err != nil {
		t.Fatalf("Options: %v", err)
	}
	if o.Workers != 2 || o.Cover || o.Formal || o.FormalDepth != 0 {
		t.Fatalf("unbound knobs leaked values: %+v", o)
	}
	if o.SimBackend().String() != "compiled" {
		t.Fatalf("unbound backend should default to compiled, got %s", o.SimBackend())
	}
}
