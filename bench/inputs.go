package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"github.com/hpcfail/hpcfail/internal/replay"
	"github.com/hpcfail/hpcfail/internal/trace"
	"github.com/hpcfail/hpcfail/internal/validate"
)

// splitAt is the share of the catalog's period the server boots with; the
// failures after it are the tail the writes replay.
const splitAt = 0.8

// inputs is one seed's generated catalog, split into the boot dataset (saved
// for hpcserve's -data) and the tail. Only the system catalog and the tail
// stay in memory.
type inputs struct {
	bootDir    string
	systems    []trace.SystemInfo
	tail       []trace.Failure
	split, end time.Time
	bootDigest string
}

// makeInputs generates the named catalog from seed, splits it and writes the
// boot part to dir.
func makeInputs(catalog string, seed int64, dir string) (*inputs, error) {
	ds, err := replay.GenerateCatalog(catalog, seed, 1)
	if err != nil {
		return nil, err
	}
	sched, err := replay.NewSchedule(ds, replay.ScheduleOptions{Seed: seed, Split: splitAt})
	if err != nil {
		return nil, err
	}
	boot := sched.BootDataset()
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := trace.SaveDir(dir, boot); err != nil {
		return nil, fmt.Errorf("saving boot dataset: %w", err)
	}
	digest, err := digestDir(dir)
	if err != nil {
		return nil, err
	}
	return &inputs{
		bootDir:    dir,
		systems:    boot.Systems,
		tail:       ds.Failures[len(boot.Failures):],
		split:      sched.SplitTime(),
		end:        sched.End(),
		bootDigest: digest,
	}, nil
}

// loadBoot reads the boot dataset back the way hpcserve does: the lenient
// validation policy, no skip budget.
func loadBoot(dir string) (*trace.Dataset, error) {
	p := validate.DefaultPolicy()
	p.Mode = validate.Lenient
	p.MaxSkipRate = 1
	ds, _, err := trace.LoadDirWith(dir, p)
	return ds, err
}

// digestDir hashes every file of dir in name order.
func digestDir(dir string) (string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return "", err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	h := sha256.New()
	for _, name := range names {
		fmt.Fprintf(h, "%s\x00", name)
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			return "", err
		}
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// pinnedOps is how many leading ops of each stream the input pins cover.
const pinnedOps = 2000

// pins records, per seed, the boot dataset digest and each workload's op
// stream digest. A change to the catalog generator or the stream must show
// up as a pin mismatch instead of silently changing the traffic.
type pins map[string]map[string]string

func loadPins(path string) (pins, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var p pins
	if err := json.Unmarshal(b, &p); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return p, nil
}

// check compares the digests of one seed's inputs against the pins; seeds
// without pins pass.
func (p pins) check(seed int64, name, got string) error {
	want, ok := p[fmt.Sprint(seed)][name]
	if !ok || want == got {
		return nil
	}
	return fmt.Errorf("input pin mismatch for seed %d %s: digest %s, pinned %s", seed, name, got, want)
}
