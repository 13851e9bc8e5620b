package chaos

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"

	"chaos/internal/cluster"
	"chaos/internal/core"
)

// String returns the flag/API spelling of the storage device ("ssd" or
// "hdd"), the inverse of ParseStorage.
func (s Storage) String() string {
	if s == HDD {
		return "hdd"
	}
	return "ssd"
}

// String returns the flag/API spelling of the network ("40g" or "1g"),
// the inverse of ParseNetwork.
func (n Network) String() string {
	if n == Net1GigE {
		return "1g"
	}
	return "40g"
}

// MarshalJSON writes the device name, the spelling ParseStorage reads.
func (s Storage) MarshalJSON() ([]byte, error) { return json.Marshal(s.String()) }

// UnmarshalJSON reads a device name (see unmarshalDevice).
func (s *Storage) UnmarshalJSON(data []byte) error {
	return unmarshalDevice(data, "storage", ParseStorage, s)
}

// MarshalJSON writes the network name, the spelling ParseNetwork reads.
func (n Network) MarshalJSON() ([]byte, error) { return json.Marshal(n.String()) }

// UnmarshalJSON reads a network name (see unmarshalDevice).
func (n *Network) UnmarshalJSON(data []byte) error {
	return unmarshalDevice(data, "network", ParseNetwork, n)
}

// unmarshalDevice decodes a two-valued hardware enum from its name
// (through parse, so the job API rejects a bad name with the CLIs'
// message) or from the integers 0 and 1: every journal and snapshot
// written before Options carried JSON tags holds the Go constant's value.
func unmarshalDevice[T ~int](data []byte, what string, parse func(string) (T, error), dst *T) error {
	if bytes.Equal(data, []byte("null")) {
		return nil // absent, as encoding/json treats null for plain fields
	}
	var name string
	if json.Unmarshal(data, &name) == nil {
		v, err := parse(name)
		if err != nil {
			return err
		}
		*dst = v
		return nil
	}
	var legacy int
	if err := json.Unmarshal(data, &legacy); err != nil || legacy < 0 || legacy > 1 {
		return fmt.Errorf("chaos: %s must be a name or the legacy value 0 or 1, got %s", what, data)
	}
	*dst = T(legacy)
	return nil
}

// ParseStorage resolves a storage-device name; the empty string means the
// default SSD.
func ParseStorage(name string) (Storage, error) {
	switch strings.ToLower(name) {
	case "", "ssd":
		return SSD, nil
	case "hdd":
		return HDD, nil
	}
	return SSD, fmt.Errorf("chaos: unknown storage %q (want ssd or hdd)", name)
}

// ParseNetwork resolves a network name; the empty string means the
// default 40 GigE.
func ParseNetwork(name string) (Network, error) {
	switch strings.ToLower(name) {
	case "", "40g", "40gige":
		return Net40GigE, nil
	case "1g", "1gige":
		return Net1GigE, nil
	}
	return Net40GigE, fmt.Errorf("chaos: unknown network %q (want 40g or 1g)", name)
}

// ParseEngine resolves an execution-engine name; the empty string and
// "des" mean the default discrete-event-simulation driver. Every front
// end (-engine flags, the job API's "engine" option) routes through it
// so the names and error messages match everywhere.
func ParseEngine(name string) (string, error) {
	switch strings.ToLower(name) {
	case "", "sim", "des":
		return EngineSim, nil
	case "native":
		return EngineNative, nil
	}
	return "", fmt.Errorf("chaos: unknown engine %q (want sim or native)", name)
}

// ParseOptions validates the CLIs' string-typed flags — algorithm,
// storage and network names — and returns the canonical algorithm name
// plus base with the parsed hardware applied. An empty algorithm skips
// algorithm resolution (for callers that only need the hardware), and
// empty storage/network strings leave the paper defaults. The job API
// reaches the same three parsers through Options' JSON decoding, so the
// names and error messages match everywhere.
func ParseOptions(alg, storage, network string, base Options) (string, Options, error) {
	canon := ""
	if alg != "" {
		var err error
		canon, err = ParseAlgorithm(alg)
		if err != nil {
			return "", base, err
		}
	}
	st, err := ParseStorage(storage)
	if err != nil {
		return "", base, err
	}
	net, err := ParseNetwork(network)
	if err != nil {
		return "", base, err
	}
	base.Storage = st
	base.Network = net
	return canon, base, nil
}

// defaults is the engine's default configuration, normalized: the one
// source of every default Canonical makes explicit.
var defaults = func() core.Config {
	cfg := core.DefaultConfig(cluster.SSD(1))
	_ = cfg.Normalize() // cannot fail: one machine, no option set
	return cfg
}()

// LatencyScaleFor returns the LatencyScale that keeps the paper's
// latency-to-service-time ratios at the given chunk size (see DESIGN.md):
// the chunk's fraction of the paper's 4 MB chunk. Zero or less means the
// paper chunk, scale 1.
func LatencyScaleFor(chunkBytes int) float64 {
	if chunkBytes <= 0 {
		chunkBytes = core.PaperChunkBytes
	}
	return float64(chunkBytes) / float64(core.PaperChunkBytes)
}

// Canonical returns o with every implied default made explicit, such that
// two Options produce identical runs over the same input if and only if
// their canonical forms are equal, and running the canonical form behaves
// exactly like running o. The job service keys its result cache on the
// canonical form so that, e.g., {Seed: 0} and {Seed: 1} share one entry.
//
// Only fields with something to fold appear below; every other field is
// its own canonical form. The defaults are the engine's own (defaults
// above), and config translates the canonical form, so a run sees
// exactly the values the fingerprint names.
func (o Options) Canonical() Options {
	c := o
	if c.Machines <= 0 {
		c.Machines = 1
	}
	if c.Storage != HDD {
		c.Storage = SSD
	}
	if c.Network != Net1GigE {
		c.Network = Net40GigE
	}
	if c.Cores <= 0 {
		c.Cores = defaults.Spec.Cores
	}
	if c.ChunkBytes <= 0 {
		c.ChunkBytes = defaults.ChunkBytes
	}
	if c.VertexChunkBytes <= 0 {
		c.VertexChunkBytes = c.ChunkBytes
	}
	if c.MemBudgetBytes < 0 {
		c.MemBudgetBytes = 0
	}
	if c.MemoryBudgetMB < 0 {
		c.MemoryBudgetMB = 0
	}
	if c.BatchK <= 0 {
		c.BatchK = defaults.BatchK
	}
	if c.WindowOverride < 0 {
		c.WindowOverride = 0
	}
	// Fold the three stealing knobs into one canonical triple:
	// DisableStealing wins, then AlwaysSteal, then Alpha, with the
	// engine's alpha the default when none is set (NaN included).
	switch {
	case c.DisableStealing:
		c.Alpha, c.AlwaysSteal = 0, false
	case c.AlwaysSteal:
		c.Alpha = 0
	case !(c.Alpha > 0):
		c.Alpha = defaults.Alpha
	}
	if c.CheckpointEvery < 0 {
		c.CheckpointEvery = 0
	}
	if c.FailAtIteration < 0 {
		c.FailAtIteration = 0
	}
	if c.MaxIterations <= 0 {
		c.MaxIterations = defaults.MaxIterations
	}
	if !(c.LatencyScale > 0) {
		c.LatencyScale = 1
	}
	// ComputeWorkers is a host-performance knob: the engine guarantees
	// bit-identical results, reports and simulated times for every value
	// (see internal/core/parallel.go), so all values canonicalize to the
	// default and share one cache entry.
	c.ComputeWorkers = 0
	// NativeBarrier selects nothing any more (see its declaration), so
	// a body that still sets it shares the cache entry of one that
	// does not.
	c.NativeBarrier = false
	// Engine aliases fold to their canonical spelling; an unknown name
	// is left as-is (Canonical cannot fail) and rejected by Validate. The
	// two engines never share a cache entry: their reports differ
	// (virtual vs wall time) and float folds may differ too.
	if eng, err := ParseEngine(c.Engine); err == nil {
		c.Engine = eng
	}
	if c.Seed == 0 {
		c.Seed = defaults.Seed
	}
	return c
}

// Fingerprint returns a deterministic string identifying the effective
// configuration. Two Options share a fingerprint exactly when their
// canonical forms are equal; the job service hashes it (together with the
// graph and algorithm) to content-address cached results.
//
// It is "<json key>=<value>;" for every field of the canonical form, in
// declaration order, so a new field enters the cache key by being
// declared. Only scalar kinds and fmt.Stringer enums have an encoding: a
// pointer, slice, map or func field would put a memory address into the
// key, so it panics — on the first Fingerprint call of any test.
func (o Options) Fingerprint() string {
	c := reflect.ValueOf(o.Canonical())
	var b strings.Builder
	for i := 0; i < c.NumField(); i++ {
		field := c.Type().Field(i)
		key, _, _ := strings.Cut(field.Tag.Get("json"), ",")
		b.WriteString(key)
		b.WriteByte('=')
		switch v := c.Field(i).Interface().(type) {
		case fmt.Stringer:
			b.WriteString(v.String())
		case int:
			b.WriteString(strconv.Itoa(v))
		case int64:
			b.WriteString(strconv.FormatInt(v, 10))
		case float64:
			b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
		case bool:
			b.WriteString(strconv.FormatBool(v))
		case string:
			b.WriteString(v)
		default:
			panic(fmt.Sprintf("chaos: Options.%s has type %s, which Fingerprint cannot encode", field.Name, field.Type))
		}
		b.WriteByte(';')
	}
	return b.String()
}

// Validate reports the error a run with o would fail with before doing
// any work: an unknown engine name, a memory budget too large to count
// in bytes, or an option combination the engine rejects (failure
// injection without checkpoints, edge rewriting with the central
// directory or with failure injection). The rules are the engine's own —
// Validate runs its normalization — and every run checks them through
// Validate, so front ends that call it at submission reject exactly what
// the run would.
func (o Options) Validate() error {
	if _, err := ParseEngine(o.Engine); err != nil {
		return err
	}
	if o.MemoryBudgetMB > math.MaxInt64>>20 {
		return fmt.Errorf("chaos: memoryBudgetMB %d is more than the %d MiB a byte count can hold", o.MemoryBudgetMB, math.MaxInt64>>20)
	}
	cfg := o.config()
	return cfg.Normalize()
}
