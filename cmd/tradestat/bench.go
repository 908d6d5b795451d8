package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// benchSample is one benchmark's best-of over its -count repetitions.
type benchSample struct {
	nsPerOp   float64 // minimum: the gated figure
	eventsSec float64 // maximum events/s, 0 if the benchmark reports none
}

// benchBest parses `go test -bench` output and returns the best sample per
// benchmark name, GOMAXPROCS suffix stripped: the minimum ns/op and, where
// the benchmark reports one, the maximum events/s. With -count N each
// benchmark appears N times; best-of is the honest aggregate on a noisy box
// (the slow samples measure the machine, not the code).
func benchBest(r io.Reader) (map[string]benchSample, error) {
	best := map[string]benchSample{}
	procSuffix := regexp.MustCompile(`-\d+$`)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := procSuffix.ReplaceAllString(fields[0], "")
		for i := 1; i+1 < len(fields); i++ {
			unit := fields[i+1]
			if unit != "ns/op" && unit != "events/s" {
				continue
			}
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchmark %s: bad %s value %q", name, unit, fields[i])
			}
			b := best[name]
			switch {
			case unit == "ns/op" && (b.nsPerOp == 0 || v < b.nsPerOp):
				b.nsPerOp = v
			case unit == "events/s" && v > b.eventsSec:
				b.eventsSec = v
			}
			best[name] = b
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return best, nil
}

// runBench compares two bench outputs on ns/op, best-of per benchmark, and
// fails when head takes more than timeThresh longer than base on any
// benchmark both sides report. events/s is printed beside it and not gated:
// it divides by a count of scheduler events, which a change to what the
// scheduler fires an event for moves without the run getting any slower.
func runBench(w io.Writer, basePath, headPath string, timeThresh float64) error {
	parse := func(path string) (map[string]benchSample, error) {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		m, err := benchBest(f)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if len(m) == 0 {
			return nil, fmt.Errorf("%s: no benchmarks reporting ns/op", path)
		}
		return m, nil
	}
	base, err := parse(basePath)
	if err != nil {
		return err
	}
	head, err := parse(headPath)
	if err != nil {
		return err
	}

	all := make([]string, 0, len(base))
	for n := range base {
		all = append(all, n)
	}
	sort.Strings(all)
	names := all[:0]
	for _, n := range all {
		if _, ok := head[n]; ok {
			names = append(names, n)
		}
	}
	if len(names) == 0 {
		return fmt.Errorf("no common benchmarks between %s and %s", basePath, headPath)
	}

	rows := make([][]string, 0, len(names))
	var regressions []string
	for _, n := range names {
		b, h := base[n], head[n]
		bad := h.nsPerOp > (1+timeThresh)*b.nsPerOp
		if bad {
			regressions = append(regressions, fmt.Sprintf(
				"%s: %.0f -> %.0f ns/op (%.1f%%), beyond the %.0f%% gate",
				n, b.nsPerOp, h.nsPerOp, 100*h.nsPerOp/b.nsPerOp, 100*timeThresh))
		}
		rows = append(rows, []string{n,
			fmt.Sprintf("%.0f", b.nsPerOp), fmt.Sprintf("%.0f", h.nsPerOp), ratioCell(b.nsPerOp, h.nsPerOp, bad),
			rate(b.eventsSec), rate(h.eventsSec)})
	}
	fmt.Fprintf(w, "Bench gate: %s (base) vs %s (head), best-of ns/op (events/s shown, not gated)\n", basePath, headPath)
	fmt.Fprint(w, table([]string{"benchmark", "base ns/op", "head ns/op", "delta", "base ev/s", "head ev/s"}, rows))
	if len(regressions) > 0 {
		for _, r := range regressions {
			fmt.Fprintf(w, "REGRESSION %s\n", r)
		}
		return fmt.Errorf("%d regression(s)", len(regressions))
	}
	fmt.Fprintln(w, "ok: no regressions")
	return nil
}
