package fit

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// ErrLog is the sentinel wrapped by every failure-log rejection — negative
// or non-finite fields, missing exposure, rates that overflow, malformed
// lines — so drivers can errors.Is a bad operator-supplied log without
// matching message text.
var ErrLog = errors.New("fit: invalid failure log")

// LogEntry is one observation period from a system failure history: a
// machine (or partition) of FootprintBytes observed for Hours, during which
// DUEs crashes and SDCs silent corruptions were attributed to it. §IV-A
// names "the analysis of system failure (memory, storage, network)
// histories/logs" as an alternative source of rates; FromLog is that
// analysis.
type LogEntry struct {
	FootprintBytes int64
	Hours          float64
	DUEs, SDCs     int64
}

// FromLog estimates node Rates from failure-history entries by maximum
// likelihood under the model the whole framework uses — failures are
// Poisson with intensity proportional to memory footprint:
//
//	λ̂ (per 32 GB, per hour) = Σ events / Σ (hours × footprint/32GB)
//
// converted to FIT (per 10⁹ hours). It returns an error if an entry is
// negative or its hours are not finite, if the log carries no exposure, or if
// the rates come out non-finite (an exposure too small to divide by).
func FromLog(entries []LogEntry) (Rates, error) {
	var exposure float64 // 32GB-hours
	var dues, sdcs float64
	for _, e := range entries {
		if e.FootprintBytes < 0 || e.Hours < 0 || e.DUEs < 0 || e.SDCs < 0 {
			return Rates{}, fmt.Errorf("fit: negative field in log entry %+v: %w", e, ErrLog)
		}
		if !finite(e.Hours) {
			return Rates{}, fmt.Errorf("fit: log entry %+v: hours not finite: %w", e, ErrLog)
		}
		exposure += e.Hours * float64(e.FootprintBytes) / float64(BytesPer32GB)
		dues += float64(e.DUEs)
		sdcs += float64(e.SDCs)
	}
	if exposure <= 0 {
		return Rates{}, fmt.Errorf("fit: log has no exposure: %w", ErrLog)
	}
	r := Rates{
		DUEPer32GB: dues / exposure * HoursPerBillion,
		SDCPer32GB: sdcs / exposure * HoursPerBillion,
	}
	if !finite(r.DUEPer32GB) || !finite(r.SDCPer32GB) {
		return Rates{}, fmt.Errorf("fit: log rates %+v not finite: %w", r, ErrLog)
	}
	return r, nil
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// ParseLog reads a whitespace-separated failure log, one entry per line:
//
//	footprint_bytes hours dues sdcs
//
// Blank lines and lines starting with '#' are skipped. Every rejected line,
// a non-finite hours field included, wraps ErrLog. This is the file format
// cmd tools accept for operator-supplied rates.
func ParseLog(r io.Reader) ([]LogEntry, error) {
	var out []LogEntry
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		f := strings.Fields(text)
		if len(f) != 4 {
			return nil, fmt.Errorf("fit: log line %d: want 4 fields, got %d: %w", line, len(f), ErrLog)
		}
		bytes, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("fit: log line %d: footprint: %w: %w", line, err, ErrLog)
		}
		hours, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			return nil, fmt.Errorf("fit: log line %d: hours: %w: %w", line, err, ErrLog)
		}
		if !finite(hours) {
			return nil, fmt.Errorf("fit: log line %d: hours %q not finite: %w", line, f[1], ErrLog)
		}
		dues, err := strconv.ParseInt(f[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("fit: log line %d: dues: %w: %w", line, err, ErrLog)
		}
		sdcs, err := strconv.ParseInt(f[3], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("fit: log line %d: sdcs: %w: %w", line, err, ErrLog)
		}
		out = append(out, LogEntry{FootprintBytes: bytes, Hours: hours, DUEs: dues, SDCs: sdcs})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
