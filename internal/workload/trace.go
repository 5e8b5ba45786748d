package workload

import (
	"compress/gzip"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// Format names a trace serialisation format.
type Format string

const (
	// FormatJSON is human-readable JSON.
	FormatJSON Format = "json"
	// FormatGob is the compact binary encoding/gob format.
	FormatGob Format = "gob"
)

// traceEnvelope is the on-disk representation.
type traceEnvelope struct {
	FormatVersion int           `json:"formatVersion"`
	Config        Config        `json:"config"`
	Pages         []Page        `json:"pages"`
	Publications  []Publication `json:"publications"`
	Requests      []Request     `json:"requests"`
	Subscriptions [][]int32     `json:"subscriptions"`
}

const traceFormatVersion = 1

// Write serialises the workload to w in the given format.
func (w *Workload) Write(out io.Writer, format Format) error {
	env := traceEnvelope{
		FormatVersion: traceFormatVersion,
		Config:        w.Config,
		Pages:         w.Pages,
		Publications:  w.Publications,
		Requests:      w.Requests,
		Subscriptions: w.Subscriptions,
	}
	switch format {
	case FormatJSON:
		enc := json.NewEncoder(out)
		return enc.Encode(&env)
	case FormatGob:
		return gob.NewEncoder(out).Encode(&env)
	default:
		return fmt.Errorf("workload: unknown trace format %q", format)
	}
}

// Read deserialises a workload written by Write.
func Read(in io.Reader, format Format) (*Workload, error) {
	var env traceEnvelope
	switch format {
	case FormatJSON:
		if err := json.NewDecoder(in).Decode(&env); err != nil {
			return nil, fmt.Errorf("workload: decode json trace: %w", err)
		}
	case FormatGob:
		if err := gob.NewDecoder(in).Decode(&env); err != nil {
			return nil, fmt.Errorf("workload: decode gob trace: %w", err)
		}
	default:
		return nil, fmt.Errorf("workload: unknown trace format %q", format)
	}
	if env.FormatVersion != traceFormatVersion {
		return nil, fmt.Errorf("workload: unsupported trace format version %d (want %d)", env.FormatVersion, traceFormatVersion)
	}
	w := &Workload{
		Config:        env.Config,
		Pages:         env.Pages,
		Publications:  env.Publications,
		Requests:      env.Requests,
		Subscriptions: env.Subscriptions,
	}
	if err := w.Config.Validate(); err != nil {
		return nil, fmt.Errorf("workload: trace config invalid: %w", err)
	}
	if err := w.checkRefs(); err != nil {
		return nil, err
	}
	return w, nil
}

// CheckSubscriptions reports an error unless the subscription matrix
// has one row per page and one column per server: the shape every
// replay indexes as Subscriptions[page][server].
func (w *Workload) CheckSubscriptions() error {
	if len(w.Subscriptions) != len(w.Pages) {
		return fmt.Errorf("workload: subscription matrix has %d rows for %d pages", len(w.Subscriptions), len(w.Pages))
	}
	for page, row := range w.Subscriptions {
		if len(row) != w.Config.Servers {
			return fmt.Errorf("workload: subscription row of page %d has %d entries for %d servers", page, len(row), w.Config.Servers)
		}
	}
	return nil
}

// checkRefs reports an error unless every reference a replay follows
// is in range: the subscription matrix's shape, each request's page
// and server, and each publication's page. Versions and subscription
// counts must be non-negative.
func (w *Workload) checkRefs() error {
	if err := w.CheckSubscriptions(); err != nil {
		return err
	}
	for page, row := range w.Subscriptions {
		for server, n := range row {
			if n < 0 {
				return fmt.Errorf("workload: page %d has %d subscriptions at server %d", page, n, server)
			}
		}
	}
	pages, servers := int32(len(w.Pages)), int32(w.Config.Servers)
	for i, p := range w.Publications {
		if p.Page < 0 || p.Page >= pages || p.Version < 0 {
			return fmt.Errorf("workload: publication %d (page %d, version %d) out of range for %d pages", i, p.Page, p.Version, pages)
		}
	}
	for i, r := range w.Requests {
		if r.Page < 0 || r.Page >= pages || r.Server < 0 || r.Server >= servers {
			return fmt.Errorf("workload: request %d (page %d, server %d) out of range for %d pages and %d servers", i, r.Page, r.Server, pages, servers)
		}
	}
	return nil
}

// SaveFile writes the workload to path. The format is chosen from the
// extension: .json (JSON), .gob (gob); a trailing .gz adds gzip
// compression (e.g. trace.gob.gz).
func (w *Workload) SaveFile(path string) error {
	format, compressed, err := formatFromPath(path)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("workload: save trace: %w", err)
	}
	defer f.Close()
	var out io.Writer = f
	var gz *gzip.Writer
	if compressed {
		gz = gzip.NewWriter(f)
		out = gz
	}
	if err := w.Write(out, format); err != nil {
		return err
	}
	if gz != nil {
		if err := gz.Close(); err != nil {
			return fmt.Errorf("workload: save trace: %w", err)
		}
	}
	return f.Close()
}

// LoadFile reads a workload saved with SaveFile.
func LoadFile(path string) (*Workload, error) {
	format, compressed, err := formatFromPath(path)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("workload: load trace: %w", err)
	}
	defer f.Close()
	var in io.Reader = f
	if compressed {
		gz, err := gzip.NewReader(f)
		if err != nil {
			return nil, fmt.Errorf("workload: load trace: %w", err)
		}
		defer gz.Close()
		in = gz
	}
	return Read(in, format)
}

func formatFromPath(path string) (Format, bool, error) {
	name := path
	compressed := false
	if strings.HasSuffix(name, ".gz") {
		compressed = true
		name = strings.TrimSuffix(name, ".gz")
	}
	switch filepath.Ext(name) {
	case ".json":
		return FormatJSON, compressed, nil
	case ".gob":
		return FormatGob, compressed, nil
	default:
		return "", false, fmt.Errorf("workload: cannot infer trace format from %q (want .json, .gob, optionally .gz)", path)
	}
}
