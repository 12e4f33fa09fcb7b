package trace

import (
	"bufio"
	"fmt"
	"io"
	"strings"
	"time"

	"avmem/internal/ids"
)

// The text codec serializes traces in a simple line format so synthetic
// traces can be archived and real measurement data can be imported:
//
//	# avmem-trace v1
//	hosts 1442 epochs 504 epoch_seconds 1200
//	10.0.0.0:4000 0110111...   (one 0/1 rune per epoch)
//	10.0.0.1:4001 1111000...
//
// Lines starting with '#' are comments and ignored on read.

const codecHeader = "# avmem-trace v1"

// Write serializes the trace to w in the avmem-trace v1 text format.
func Write(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, codecHeader); err != nil {
		return fmt.Errorf("trace: write header: %w", err)
	}
	if _, err := fmt.Fprintf(bw, "hosts %d epochs %d epoch_seconds %d\n",
		t.Hosts(), t.Epochs(), int(t.EpochLength().Seconds())); err != nil {
		return fmt.Errorf("trace: write dimensions: %w", err)
	}
	row := make([]byte, t.Epochs())
	for h := 0; h < t.Hosts(); h++ {
		for e := 0; e < t.Epochs(); e++ {
			if t.Up(h, e) {
				row[e] = '1'
			} else {
				row[e] = '0'
			}
		}
		if _, err := fmt.Fprintf(bw, "%s %s\n", t.HostID(h), row); err != nil {
			return fmt.Errorf("trace: write host %d: %w", h, err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("trace: flush: %w", err)
	}
	return nil
}

// Read parses a trace in the avmem-trace v1 text format.
func Read(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)

	line, err := nextLine(sc)
	if err != nil {
		return nil, fmt.Errorf("trace: read header: %w", err)
	}
	if line != codecHeader {
		return nil, fmt.Errorf("trace: bad header %q, want %q", line, codecHeader)
	}

	line, err = nextLine(sc)
	if err != nil {
		return nil, fmt.Errorf("trace: read dimensions: %w", err)
	}
	var hosts, epochs, epochSeconds int
	if _, err := fmt.Sscanf(line, "hosts %d epochs %d epoch_seconds %d",
		&hosts, &epochs, &epochSeconds); err != nil {
		return nil, fmt.Errorf("trace: parse dimensions %q: %w", line, err)
	}
	if hosts <= 0 || epochs <= 0 || epochSeconds <= 0 {
		return nil, fmt.Errorf("trace: non-positive dimensions in %q", line)
	}

	// Cap the preallocation: hosts comes from an untrusted header, and
	// honoring a huge claim would allocate gigabytes before a single
	// row is read. The slices grow to the real row count regardless.
	prealloc := hosts
	if prealloc > 4096 {
		prealloc = 4096
	}
	hostIDs := make([]ids.NodeID, 0, prealloc)
	rows := make([]string, 0, prealloc)
	for i := 0; i < hosts; i++ {
		line, err = nextLine(sc)
		if err != nil {
			return nil, fmt.Errorf("trace: read host row %d: %w", i, err)
		}
		id, bits, ok := strings.Cut(line, " ")
		if !ok {
			return nil, fmt.Errorf("trace: malformed host row %d: %q", i, line)
		}
		if len(bits) != epochs {
			return nil, fmt.Errorf("trace: host %q has %d epochs, want %d", id, len(bits), epochs)
		}
		hostIDs = append(hostIDs, ids.NodeID(id))
		rows = append(rows, bits)
	}

	t, err := New(hostIDs, epochs, time.Duration(epochSeconds)*time.Second)
	if err != nil {
		return nil, err
	}
	// Rows go straight into their words; every row was checked to hold
	// exactly epochs runes above.
	for h, bits := range rows {
		row := t.bits[h*t.words : (h+1)*t.words]
		for e := 0; e < epochs; e++ {
			switch bits[e] {
			case '1':
				row[e/64] |= 1 << uint(e%64)
			case '0':
				// already offline
			default:
				return nil, fmt.Errorf("trace: host %q epoch %d: invalid bit %q", hostIDs[h], e, bits[e])
			}
		}
	}
	return t, nil
}

// nextLine returns the next meaningful line: blank lines and comments
// are skipped, except the version header itself (which begins with '#'
// but is significant).
func nextLine(sc *bufio.Scanner) (string, error) {
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") && line != codecHeader {
			continue
		}
		return line, nil
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", io.ErrUnexpectedEOF
}
