package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"chaos/internal/durable"
	"chaos/internal/graph"
)

// graphRecordMask zeroes a graph record's registration time and blanks
// its upload's payload name, which is random.
var graphRecordMask = regexp.MustCompile(`"registered":"[^"]*"|"upload":"uploads/[^"/]+\.edges"`)

func maskGraphRecord(raw []byte) string {
	return graphRecordMask.ReplaceAllStringFunc(string(raw), func(m string) string {
		if strings.HasPrefix(m, `"registered"`) {
			return `"registered":"0"`
		}
		return `"upload":"uploads/<name>.edges"`
	})
}

// TestGraphRecordForm pins the journaled and snapshotted form of a graph
// registration: a weighted R-MAT graph and an unnamed upload with a
// declared vertex count, registered on a durable service. The literals
// are the bytes the service wrote before Graph embedded its record, with
// times zeroed and the payload name masked (it was uploads/g1.edges; it
// is random now, so that writing it needs no id).
func TestGraphRecordForm(t *testing.T) {
	dir := t.TempDir()
	svc, err := open(Config{Workers: 1, BaseOptions: labOptions, DataDir: dir, SnapshotEvery: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.RegisterGraph(GraphSpec{Name: "rmat6", Type: "rmat", Scale: 6, Weighted: true, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	data := graph.FormatFor(100, false).EncodeEdges(nil, []graph.Edge{{Src: 0, Dst: 99}, {Src: 5, Dst: 7}, {Src: 7, Dst: 5}})
	if _, err := svc.RegisterGraph(GraphSpec{Type: "upload", Vertices: 100, Data: data}); err != nil {
		t.Fatal(err)
	}
	snap, err := svc.captureSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	graphs, err := json.Marshal(snap.(serviceSnapshot).Graphs)
	if err != nil {
		t.Fatal(err)
	}
	crash(t, svc)

	const (
		rmat   = `{"id":"rmat6","type":"rmat","scale":6,"seed":1,"registered":"0","specWeighted":true,"weighted":true,"vertices":64,"edges":1024}`
		upload = `{"id":"g1","type":"upload","registered":"0","declaredVertices":100,"weighted":false,"vertices":100,"edges":3,"upload":"uploads/<name>.edges"}`
	)
	if got, want := maskGraphRecord(graphs), "["+rmat+","+upload+"]"; got != want {
		t.Errorf("snapshot graphs\n got %s\nwant %s", got, want)
	}
	w, rec, err := durable.OpenWAL(filepath.Join(dir, "wal"), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	var journaled []string
	for _, r := range rec.Records {
		if r.Kind == recGraph {
			journaled = append(journaled, maskGraphRecord(r.Data))
		}
	}
	if got, want := strings.Join(journaled, "\n"), rmat+"\n"+upload; got != want {
		t.Errorf("journaled graph records\n got %s\nwant %s", got, want)
	}
}

// TestCompactionBetweenAppendAndAck lands a compaction after a
// registration's journal append and before the sync that acknowledges
// it — where a compaction another record tripped can land — and reopens
// without a final snapshot. The compaction drops the segment holding the
// graph's record, so only its snapshot can keep the graph, and the
// snapshot is captured under the lock the append and the filing share.
func TestCompactionBetweenAppendAndAck(t *testing.T) {
	dir := t.TempDir()
	svc := openDurable(t, dir, 1)
	g, err := svc.catalog.build(GraphSpec{Name: "g", Type: "rmat", Scale: 6, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.catalog.file(g, svc.journalGraph); err != nil {
		t.Fatal(err)
	}
	if err := svc.persist.wal.Compact(svc.captureSnapshot); err != nil {
		t.Fatal(err)
	}
	if err := svc.persist.wal.Sync(); err != nil {
		t.Fatal(err)
	}
	crash(t, svc)

	svc2 := openDurable(t, dir, 1)
	defer svc2.Shutdown(context.Background())
	if got, ok := svc2.Catalog().Get("g"); !ok || got.EdgeCount != g.EdgeCount {
		t.Fatalf("the acknowledged graph came back as %v (listed %v), want its %d edges", got, ok, g.EdgeCount)
	}
}

// TestConcurrentRegistrationsSurviveCompaction registers graphs, named
// and not, generated and uploaded, from several goroutines on a service
// that compacts after every record, so compactions land between other
// registrations' appends and syncs; after a crash every acknowledged
// graph is listed with its edge count.
func TestConcurrentRegistrationsSurviveCompaction(t *testing.T) {
	dir := t.TempDir()
	svc, err := Open(Config{Workers: 1, BaseOptions: labOptions, DataDir: dir, SnapshotEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	upload := graph.FormatFor(8, false).EncodeEdges(nil, []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 7}})
	const writers, each = 4, 8
	var mu sync.Mutex
	acked := map[string]int{}
	var wg sync.WaitGroup
	for w := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range each {
				spec := GraphSpec{Type: "rmat", Scale: 4, Seed: int64(w*each + i)}
				if i%3 == 0 {
					spec = GraphSpec{Type: "upload", Data: upload}
				}
				if i%2 == 0 {
					spec.Name = fmt.Sprintf("w%d-%d", w, i)
				}
				g, err := svc.RegisterGraph(spec)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				acked[g.ID] = g.EdgeCount
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	waitFor(t, "the last compaction", func() bool { return !svc.persist.compacting.Load() })
	if st := svc.Stats().Durable; st.WAL.Snapshots == 0 || st.LastError != "" {
		t.Fatalf("durable stats %+v, want snapshots and no error", st)
	}
	crash(t, svc)

	svc2 := openDurable(t, dir, 1)
	defer svc2.Shutdown(context.Background())
	for id, edges := range acked {
		if g, ok := svc2.Catalog().Get(id); !ok || g.EdgeCount != edges {
			t.Errorf("acknowledged graph %s (%d edges) came back as %v, listed %v", id, edges, g, ok)
		}
	}
	if n := len(svc2.Catalog().List()); n != writers*each || len(acked) != writers*each {
		t.Errorf("%d graphs listed, %d acknowledged, want %d", n, len(acked), writers*each)
	}
}

// TestRegistrationFailsWithItsJournal: a registration whose journal
// append fails answers 500 with the reason (a malformed spec still gets
// 400) and files nothing — the graph is
// neither listed nor in the next snapshot, and an upload leaves no
// payload behind — and the failure is the service's sticky persistence
// error.
func TestRegistrationFailsWithItsJournal(t *testing.T) {
	dir := t.TempDir()
	svc := openDurable(t, dir, 1)
	defer svc.Shutdown(context.Background())
	svc.persist.wal.Close()

	w := httptest.NewRecorder()
	body := strings.NewReader(`{"name":"lost","type":"rmat","scale":6,"seed":1}`)
	svc.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/graphs", body))
	if w.Code != http.StatusInternalServerError || !strings.Contains(w.Body.String(), "journal closed") {
		t.Errorf("registration answered %d %s, want 500 naming the closed journal", w.Code, w.Body)
	}
	// A spec the service refuses is still the client's mistake.
	w = httptest.NewRecorder()
	body = strings.NewReader(`{"name":"bad","type":"rmat","scale":99,"seed":1}`)
	svc.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/graphs", body))
	if w.Code != http.StatusBadRequest {
		t.Errorf("a malformed spec answered %d %s, want 400", w.Code, w.Body)
	}
	data := graph.FormatFor(4, false).EncodeEdges(nil, []graph.Edge{{Src: 0, Dst: 3}})
	if _, err := svc.RegisterGraph(GraphSpec{Name: "lost-upload", Type: "upload", Data: data}); err == nil {
		t.Error("an upload registered on a closed journal")
	}
	if payloads, err := os.ReadDir(filepath.Join(dir, "uploads")); err != nil || len(payloads) != 0 {
		t.Errorf("uploads/ holds %v (%v), want no payload of a refused upload", payloads, err)
	}
	if _, ok := svc.Catalog().Get("lost"); ok || len(svc.Catalog().List()) != 0 {
		t.Error("a graph the journal refused is listed")
	}
	snap, err := svc.captureSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if graphs := snap.(serviceSnapshot).Graphs; len(graphs) != 0 {
		t.Errorf("the snapshot holds %+v, a graph the journal refused", graphs)
	}
	if e := svc.Stats().Durable.LastError; !strings.Contains(e, "journal closed") {
		t.Errorf("last persistence error %q, want the closed journal", e)
	}
}

// TestUnnamedIDsSkipTakenNames: once a client names a graph g1, the next
// unnamed registration gets g2, not a 409, in the same process and after
// a restart; and an id once filed is never handed out again, even after
// its graph is unfiled.
func TestUnnamedIDsSkipTakenNames(t *testing.T) {
	c := NewCatalog()
	if _, err := c.Register(GraphSpec{Name: "g1", Type: "rmat", Scale: 4, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"g2", "g3"} {
		anon, err := c.Register(GraphSpec{Type: "rmat", Scale: 4, Seed: 2})
		if err != nil || anon.ID != want {
			t.Fatalf("unnamed registration: %v, %v; want id %s", anon, err, want)
		}
		c.remove(anon.ID)
	}

	dir := t.TempDir()
	svc1 := openDurable(t, dir, 1)
	if _, err := svc1.RegisterGraph(GraphSpec{Name: "g1", Type: "rmat", Scale: 4, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	crash(t, svc1)
	svc2 := openDurable(t, dir, 1)
	defer svc2.Shutdown(context.Background())
	anon, err := svc2.RegisterGraph(GraphSpec{Type: "rmat", Scale: 4, Seed: 2})
	if err != nil || anon.ID != "g2" {
		t.Fatalf("unnamed registration after a restart: %v, %v; want id g2", anon, err)
	}
}
