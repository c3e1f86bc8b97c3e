// Command kwsearch is an interactive keyword-search shell over the bundled
// datasets:
//
//	kwsearch -dataset tpch
//	> COUNT order "royal olive"
//
// Each query prints the top-k ranked interpretations with their annotated
// query patterns, generated SQL and executed answers. Meta commands:
//
//	\schema        print the ORM schema graph (Figure 3 / Figure 9 style)
//	\dot           print the ORM schema graph as Graphviz DOT
//	\explain QUERY explain the top interpretation of a query
//	\pattern QUERY print the top interpretation's pattern as Graphviz DOT
//	\sqak QUERY    run a query through the SQAK baseline instead
//	\sql SELECT... execute raw SQL of the supported subset
//	\plan SELECT...show the engine's evaluation plan for a statement
//	\k N           change how many interpretations are shown
//	\trace         toggle the per-stage duration breakdown (also -trace)
//	\quit          exit
//
// With -trace, every query prints its observability trace: one line per
// pipeline stage (parse, match, generate, rank, translate, execute, and the
// per-statement executions nested under execute) with durations that sum to
// approximately the total query latency, plus the cache provenance.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"

	"kwagg"
	"kwagg/internal/chaos"
	"kwagg/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the whole shell: it parses args (a bad flag exits, as with the
// global flag set), opens the engine, and answers the lines read from in
// until \quit or end of input, printing to out. It returns an error when the
// engine cannot be set up or in cannot be read.
func run(args []string, in io.Reader, out io.Writer) error {
	fs := flag.NewFlagSet("kwsearch", flag.ExitOnError)
	var (
		dataset = fs.String("dataset", "university",
			"university | fig2 | enrolment | tpch | tpch-denorm | acmdl | acmdl-denorm")
		load      = fs.String("load", "", "load a saved database directory (schema.json + CSVs) instead of -dataset")
		k         = fs.Int("k", 3, "number of interpretations to show")
		small     = fs.Bool("small", false, "use the small dataset scale")
		traceOn   = fs.Bool("trace", false, "print the per-stage duration breakdown after each query")
		chaosSpec = fs.String("chaos", "",
			`fault injection spec, e.g. "rate=0.1,seed=7,latency=5ms" (empty disables)`)
	)
	_ = fs.Parse(args) // ExitOnError: never returns an error

	cinj, err := chaos.Parse(*chaosSpec)
	if err != nil {
		return err
	}
	var opts *kwagg.Options
	if cinj != nil {
		opts = &kwagg.Options{Chaos: cinj}
		fmt.Fprintf(out, "chaos enabled: %s\n", *chaosSpec)
	}
	var eng *kwagg.Engine
	if *load != "" {
		var db *kwagg.DB
		db, err = kwagg.Load(*load)
		if err == nil {
			*dataset = *load
			eng, err = kwagg.Open(db, opts)
		}
	} else {
		eng, err = kwagg.OpenDatasetOpts(*dataset, *small, opts)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "kwsearch over %q (unnormalized: %v). Type a keyword query, or \\schema, \\quit.\n",
		*dataset, eng.Unnormalized())

	sc := bufio.NewScanner(in)
	fmt.Fprint(out, "> ")
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
		case line == `\quit` || line == `\q`:
			return nil
		case line == `\schema`:
			fmt.Fprintln(out, eng.SchemaGraph())
		case line == `\dot`:
			fmt.Fprintln(out, eng.SchemaDot())
		case strings.HasPrefix(line, `\explain `):
			text, err := eng.Explain(strings.TrimSpace(line[9:]), 0)
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				break
			}
			fmt.Fprintln(out, text)
		case strings.HasPrefix(line, `\pattern `):
			text, err := eng.PatternDot(strings.TrimSpace(line[9:]), 0)
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				break
			}
			fmt.Fprintln(out, text)
		case strings.HasPrefix(line, `\k `):
			if n, err := strconv.Atoi(strings.TrimSpace(line[3:])); err == nil && n > 0 {
				*k = n
			}
		case line == `\trace`:
			*traceOn = !*traceOn
			fmt.Fprintf(out, "trace: %v\n", *traceOn)
		case strings.HasPrefix(line, `\sqak `):
			res, sql, err := eng.SQAKAnswer(strings.TrimSpace(line[6:]))
			if err != nil {
				fmt.Fprintln(out, "SQAK:", err)
				break
			}
			fmt.Fprintf(out, "%s\n%s", sql, res)
		case strings.HasPrefix(line, `\sql `):
			res, err := eng.ExecuteSQL(strings.TrimSpace(line[5:]))
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				break
			}
			fmt.Fprint(out, res)
		case strings.HasPrefix(line, `\plan `):
			text, err := eng.ExplainSQLPlan(strings.TrimSpace(line[6:]))
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				break
			}
			fmt.Fprint(out, text)
		default:
			ctx := context.Background()
			var trace *obs.Trace
			if *traceOn {
				ctx, trace = obs.NewTrace(ctx)
			}
			set, err := eng.AnswerSetContext(ctx, line, *k)
			trace.Finish()
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				break
			}
			for i, a := range set.Answers {
				fmt.Fprintf(out, "-- #%d %s\n   pattern: %s\n%s\n%s",
					i+1, a.Description, a.Pattern, a.PrettySQL, a.Result)
			}
			if set.Partial {
				fmt.Fprintf(out, "partial: %d of %d statements failed\n",
					len(set.Failed), len(set.Failed)+len(set.Answers))
				for _, f := range set.Failed {
					fmt.Fprintf(out, "   #%d: %s\n", f.Index+1, f.Message)
				}
			}
			if trace != nil {
				fmt.Fprint(out, trace.Breakdown())
			}
		}
		fmt.Fprint(out, "> ")
	}
	return sc.Err()
}
