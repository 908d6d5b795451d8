package manifest

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// Encode writes the artifact as NDJSON: one JSON object per line, records
// in fixed order (meta, registry, series…, profile, fault…, decisions…,
// hoststats). encoding/json marshals struct fields in declaration order,
// so for a fixed artifact the bytes are deterministic.
func (a *Artifact) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	enc.SetEscapeHTML(false)
	for _, rec := range a.records() {
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// EncodeString returns the NDJSON bytes as a string.
//
//simlint:allow deadcode: cmd/tradenet's manifest digest test and core's telemetry tests hash and search its output
func (a *Artifact) EncodeString() string {
	var b bytes.Buffer
	if err := a.Encode(&b); err != nil {
		panic(err) // bytes.Buffer never errors; a marshal failure is a schema bug
	}
	return b.String()
}

// recordProbe reads just enough of a line to dispatch on its record type.
type recordProbe struct {
	Record string `json:"record"`
}

// DecodeAll reads a stream of NDJSON lines into artifacts. Every "meta"
// line starts a new artifact; other records attach to the current one. A
// non-meta record before any meta line is an error, as is malformed JSON.
func DecodeAll(r io.Reader) ([]*Artifact, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<26) // series lines can be long
	var out []*Artifact
	var cur *Artifact
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var probe recordProbe
		if err := json.Unmarshal(line, &probe); err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		if probe.Record == "meta" {
			cur = &Artifact{}
			if err := json.Unmarshal(line, &cur.Meta); err != nil {
				return nil, fmt.Errorf("line %d (meta): %w", lineNo, err)
			}
			out = append(out, cur)
			continue
		}
		if cur == nil {
			return nil, fmt.Errorf("line %d: %q record before any meta line", lineNo, probe.Record)
		}
		var err error
		switch probe.Record {
		case "registry":
			cur.Registry = &RegistryRecord{}
			err = json.Unmarshal(line, cur.Registry)
		case "series":
			var s SeriesRecord
			if err = json.Unmarshal(line, &s); err == nil {
				cur.Series = append(cur.Series, s)
			}
		case "profile":
			cur.Profile = &ProfileRecord{}
			err = json.Unmarshal(line, cur.Profile)
		case "fault":
			var l LogRecord
			if err = json.Unmarshal(line, &l); err == nil {
				cur.Faults = append(cur.Faults, l)
			}
		case "decisions":
			var l LogRecord
			if err = json.Unmarshal(line, &l); err == nil {
				cur.Decisions = append(cur.Decisions, l)
			}
		case "hoststats":
			cur.Host = &HostStats{}
			err = json.Unmarshal(line, cur.Host)
		default:
			// Forward compatibility: unknown additive record types are
			// skipped, not fatal — the schema string gates real breaks.
		}
		if err != nil {
			return nil, fmt.Errorf("line %d (%s): %w", lineNo, probe.Record, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// Decode reads exactly one artifact from r.
func Decode(r io.Reader) (*Artifact, error) {
	arts, err := DecodeAll(r)
	if err != nil {
		return nil, err
	}
	if len(arts) != 1 {
		return nil, fmt.Errorf("expected one artifact, found %d", len(arts))
	}
	return arts[0], nil
}

// Load reads one manifest file.
func Load(path string) (*Artifact, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	a, err := Decode(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return a, nil
}

// LoadDir reads every *.ndjson file under dir (sorted by name, so load
// order is deterministic) and returns the artifacts.
func LoadDir(dir string) ([]*Artifact, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.ndjson"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	var out []*Artifact
	for _, p := range paths {
		a, err := Load(p)
		if err != nil {
			return nil, err
		}
		out = append(out, a)
	}
	return out, nil
}

// WriteDir writes each artifact to dir under its canonical Filename,
// creating dir as needed, and returns the written paths in order. Name
// collisions (two artifacts with the same experiment/design/cell/seed)
// are an error rather than a silent overwrite.
func WriteDir(dir string, arts []*Artifact) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	seen := make(map[string]bool)
	var paths []string
	for _, a := range arts {
		name := a.Filename()
		if seen[name] {
			return nil, fmt.Errorf("duplicate manifest name %q", name)
		}
		seen[name] = true
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			return nil, err
		}
		if err := a.Encode(f); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Close(); err != nil {
			return nil, err
		}
		paths = append(paths, path)
	}
	return paths, nil
}
