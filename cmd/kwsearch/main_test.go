package main

import (
	"strings"
	"testing"

	"kwagg"
)

// session runs the shell with args over the input lines and returns what it
// printed.
func session(t *testing.T, args []string, lines ...string) string {
	t.Helper()
	var out strings.Builder
	if err := run(args, strings.NewReader(strings.Join(lines, "\n")+"\n"), &out); err != nil {
		t.Fatalf("run %v: %v", args, err)
	}
	return out.String()
}

// TestShellCommands drives every shell command over the running example,
// one session per case, and checks what each prints.
func TestShellCommands(t *testing.T) {
	for _, c := range []struct {
		name  string
		args  []string
		lines []string
		want  []string
		not   []string
	}{
		{"query shows k interpretations", nil, []string{"Green SUM Credit"},
			[]string{`over "university"`, "-- #1", "-- #2", "pattern: 0:Student", "GROUP BY S1.Sid", "s3   8"}, nil},
		{"k changes the count", []string{"-k", "3"}, []string{`\k 1`, "Green SUM Credit"},
			[]string{"-- #1"}, []string{"-- #2"}},
		{"bad k is ignored", nil, []string{`\k zero`, "Green SUM Credit"}, []string{"-- #2"}, nil},
		{"query error", nil, []string{"zzzqqq COUNT Student"}, []string{"error: ", "zzzqqq"}, nil},
		{"trace toggles the breakdown", nil, []string{`\trace`, "Green SUM Credit", `\trace`, "Green SUM Credit"},
			[]string{"trace: true", "execute", "stages total", "trace: false"}, nil},
		{"schema", nil, []string{`\schema`}, []string{"Student", "Enrol"}, nil},
		{"dot", nil, []string{`\dot`}, []string{"graph ORM {", "Student -- Enrol;"}, nil},
		{"explain", nil, []string{`\explain Green SUM Credit`, `\explain COUNT`},
			[]string{"disambiguation:", "2 matching objects", "error: "}, nil},
		{"pattern", nil, []string{`\pattern Green SUM Credit`, `\pattern COUNT`}, []string{"graph pattern {", `label="Student\nSname=Green`, "error: "}, nil},
		{"sqak answers and refuses", nil, []string{`\sqak Green SUM Credit`, `\sqak SUM Credit COUNT Student`},
			[]string{"SUM(", "13", "SQAK: sqak: does not handle more than one aggregate"}, nil},
		{"sql", nil, []string{`\sql SELECT COUNT(S.Sid) AS n FROM Student S`, `\sql SELECT nope`},
			[]string{"n", "3", "error: "}, nil},
		{"plan", nil, []string{`\plan SELECT S.Sid FROM Student S, Enrol E WHERE E.Sid=S.Sid`, `\plan SELECT nope`},
			[]string{"scan Student", "hash join", "error: "}, nil},
		{"quit stops reading", nil, []string{`\quit`, "Green SUM Credit"}, nil, []string{"-- #1"}},
		{"unnormalized dataset", []string{"-dataset", "fig2"}, []string{"COUNT Lecturer GROUPBY Faculty"},
			[]string{"(unnormalized: true)", "-- #1"}, nil},
		{"chaos faults every statement", []string{"-chaos", "rate=1,points=statement"}, []string{"Green SUM Credit"},
			[]string{"chaos enabled: rate=1,points=statement", "error: ", "injected transient fault"}, nil},
	} {
		t.Run(c.name, func(t *testing.T) {
			out := session(t, c.args, c.lines...)
			for _, w := range c.want {
				if !strings.Contains(out, w) {
					t.Errorf("output lacks %q:\n%s", w, out)
				}
			}
			for _, w := range c.not {
				if strings.Contains(out, w) {
					t.Errorf("output holds %q:\n%s", w, out)
				}
			}
		})
	}
}

// TestShellSetup pins the -load path and the setup errors run returns.
func TestShellSetup(t *testing.T) {
	dir := t.TempDir()
	if err := kwagg.UniversityDB().Save(dir); err != nil {
		t.Fatal(err)
	}
	out := session(t, []string{"-load", dir}, "Green SUM Credit")
	if !strings.Contains(out, "over \""+dir+"\"") || !strings.Contains(out, "s3   8") {
		t.Errorf("-load session:\n%s", out)
	}
	for _, args := range [][]string{
		{"-dataset", "nosuch"},
		{"-load", t.TempDir()},
		{"-chaos", "rate=2"},
	} {
		if err := run(args, strings.NewReader(""), &strings.Builder{}); err == nil {
			t.Errorf("run %v: want a setup error", args)
		}
	}
}
