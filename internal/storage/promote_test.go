package storage

import (
	"bytes"
	"testing"
)

func TestPromoteEdgesSwapsGenerations(t *testing.T) {
	s := NewStore(0, 1, NewMemBackend())
	s.PutChunk(EdgeSet, 0, []byte("old-1"))
	s.PutChunk(EdgeSet, 0, []byte("old-2"))
	s.PutChunk(EdgeSetNext, 0, []byte("new-1"))
	s.PromoteEdges(0)
	data, ok, err := s.NextChunk(EdgeSet, 0)
	if err != nil || !ok || !bytes.Equal(data, []byte("new-1")) {
		t.Fatalf("after promote: %q ok=%v err=%v, want new-1", data, ok, err)
	}
	if _, ok, _ := s.NextChunk(EdgeSet, 0); ok {
		t.Error("old edges survived promotion")
	}
	// The next-generation set is fresh again.
	if _, _, ok := s.ConsumeChunk(EdgeSetNext, 0); ok {
		t.Error("next-generation set not reset")
	}
}

func TestPromoteEdgesRepeatedGenerations(t *testing.T) {
	s := NewStore(0, 1, NewMemBackend())
	s.PutChunk(EdgeSet, 0, []byte("g0"))
	for gen := 1; gen <= 5; gen++ {
		payload := []byte{byte('0' + gen)}
		s.PutChunk(EdgeSetNext, 0, payload)
		s.PromoteEdges(0)
		data, ok, _ := s.NextChunk(EdgeSet, 0)
		if !ok || !bytes.Equal(data, payload) {
			t.Fatalf("generation %d: got %q ok=%v", gen, data, ok)
		}
		if _, ok, _ := s.NextChunk(EdgeSet, 0); ok {
			t.Fatalf("generation %d: stale chunks", gen)
		}
	}
}

func TestPromoteEdgesResetsConsumption(t *testing.T) {
	s := NewStore(0, 1, NewMemBackend())
	s.PutChunk(EdgeSetNext, 0, []byte("a"))
	s.PutChunk(EdgeSetNext, 0, []byte("b"))
	// Consume the next-gen set before promotion (should not happen in the
	// engine, but the cursor must still reset).
	s.NextChunk(EdgeSetNext, 0)
	s.PromoteEdges(0)
	served := 0
	for {
		_, ok, _ := s.NextChunk(EdgeSet, 0)
		if !ok {
			break
		}
		served++
	}
	if served != 2 {
		t.Errorf("served %d chunks after promote, want 2", served)
	}
}

func TestDropVertexChunk(t *testing.T) {
	s := NewStore(0, 1, NewMemBackend())
	s.PutVertexChunk(0, 3, 1)
	s.DropVertexChunk(0, 3)
	if _, ok := s.GetVertexChunk(0, 3); ok {
		t.Error("dropped chunk still readable")
	}
}
