package core

import (
	"fmt"

	"chaos/internal/core/drive"
	"chaos/internal/sim"
	"chaos/internal/storage"
)

// shutdown terminates a service process at the end of a run.
type shutdown struct{}

// writeAck confirms a write-class request (chunk write, vertex write,
// update delete, checkpoint write) back to the issuing computation engine.
type writeAck struct{}

// ckptWrite charges the device for a checkpoint shadow copy (the bytes are
// retained by the engine's checkpoint map, so only the I/O is modeled).
type ckptWrite struct {
	bytes int
	from  int
	ackTo *sim.Mailbox
}

// storageProc is one machine's storage engine (§6): it serves every request
// in its entirety before the next, giving sequential access to each chunk,
// and tracks per-iteration chunk consumption through the Store.
func (eng *engine[V, U, A]) storageProc(p *sim.Proc, id int) {
	st := eng.stores[id]
	dev := eng.clu.Machines[id].Device
	inbox := eng.storeIn[id]
	releaseHeld := func(held any) { eng.kern.ReleaseRecs(held.([]drive.UpdRec[U])) }
	for {
		switch m := inbox.Recv(p).(type) {
		case chunkReq:
			idx, length, ok := st.ConsumeChunk(m.kind, m.part)
			reply := chunkReply{kind: m.kind, part: m.part, from: id, length: length, empty: !ok}
			if ok {
				dev.Use(p, int64(length))
				eng.run.BytesRead += int64(length)
				reply.payload = st.HeldChunk(m.kind, m.part, idx)
				if m.dispatch != nil {
					reply.payload = m.dispatch(reply.payload)
				}
			}
			eng.clu.Send(id, m.from, int64(length)+controlMsgBytes, m.replyTo, reply)
		case writeChunk:
			// Held by reference, not recycled here: scatter reads an
			// edge chunk every iteration, and an update slab goes back
			// to the arena when the master deletes the set.
			st.HoldChunk(m.kind, m.part, m.payload, m.length)
			dev.Use(p, int64(m.length))
			eng.run.BytesWritten += int64(m.length)
			eng.clu.Send(id, m.from, controlMsgBytes, eng.machines[m.from].inbox, writeAck{})
		case vertexRead:
			length, ok := st.GetVertexChunk(m.part, m.idx)
			if !ok {
				// Every vertex chunk is written in pre-processing, before
				// any load: a miss is a protocol bug, not a storage fault.
				panic(fmt.Sprintf("core: storage %d: vertex chunk %d of partition %d read before it was written", id, m.idx, m.part))
			}
			dev.Use(p, int64(length))
			eng.run.BytesRead += int64(length)
			eng.clu.Send(id, m.from, int64(length)+controlMsgBytes, m.replyTo,
				vertexReadReply{part: m.part, length: length})
		case vertexWrite:
			st.PutVertexChunk(m.part, m.idx, m.length)
			dev.Use(p, int64(m.length))
			eng.run.BytesWritten += int64(m.length)
			eng.clu.Send(id, m.from, controlMsgBytes, eng.machines[m.from].inbox, writeAck{})
		case deleteUpdates:
			// The master deletes after its own folds and every stealer's
			// have been joined, so the held slabs can go back to the arena.
			st.DeleteUpdates(m.part, releaseHeld)
			eng.clu.Send(id, m.from, controlMsgBytes, eng.machines[m.from].inbox, writeAck{})
		case ckptWrite:
			dev.Use(p, int64(m.bytes))
			eng.run.BytesWritten += int64(m.bytes)
			eng.run.CheckpointBytes += int64(m.bytes)
			eng.clu.Send(id, m.from, controlMsgBytes, m.ackTo, writeAck{})
		case shutdown:
			return
		default:
			panic(fmt.Sprintf("core: storage %d: unexpected message %T", id, m))
		}
	}
}

// arbiterProc answers steal proposals for the partitions this machine
// masters, applying the criterion of §5.4. The master estimates D by
// multiplying the unprocessed data on its local storage engine by the
// machine count — accurate because data is spread evenly (§5.4) — which
// keeps the decision entirely local.
func (eng *engine[V, U, A]) arbiterProc(p *sim.Proc, id int) {
	inbox := eng.arbIn[id]
	ms := eng.machines[id]
	for {
		switch m := inbox.Recv(p).(type) {
		case stealPropose:
			kind := storage.EdgeSet
			if m.ph == gatherPhase {
				kind = storage.UpdateSet
			}
			accepted := false
			if !ms.closed[m.part] {
				d := eng.stores[id].RemainingBytes(kind, m.part) * int64(eng.layout.NumMachines)
				v := eng.kern.VertexSetBytes(m.part)
				accepted = drive.StealCriterion(v, d, ms.workers[m.part], eng.cfg.Alpha)
			}
			if accepted {
				ms.workers[m.part]++
				if m.ph == gatherPhase {
					ms.stealers[m.part] = append(ms.stealers[m.part], m.from)
				}
				eng.run.StealsAccepted++
			} else {
				eng.run.StealsRejected++
			}
			eng.clu.Send(id, m.from, controlMsgBytes, m.replyTo, stealResp{part: m.part, accepted: accepted})
		case shutdown:
			return
		default:
			panic(fmt.Sprintf("core: arbiter %d: unexpected message %T", id, m))
		}
	}
}

// directoryServiceTime is the central directory's service time per
// request.
const directoryServiceTime = 50 * sim.Microsecond

// directoryProc is the centralized metadata server of the Figure 15
// baseline: every placement and location decision serializes through it.
func (eng *engine[V, U, A]) directoryProc(p *sim.Proc) {
	for {
		switch m := eng.dirIn.Recv(p).(type) {
		case dirReq:
			p.Sleep(directoryServiceTime)
			resp := dirResp{tag: m.tag}
			switch m.op {
			case dirPlace:
				resp.machine = eng.dir.Place(m.kind, m.part)
				resp.ok = true
			case dirLocate:
				resp.machine, resp.ok = eng.dir.Locate(m.kind, m.part)
			case dirDelete:
				eng.dir.Delete(m.kind, m.part)
				resp.ok = true
			}
			eng.clu.Send(0, m.from, controlMsgBytes, m.replyTo, resp)
		case shutdown:
			return
		default:
			panic(fmt.Sprintf("core: directory: unexpected message %T", m))
		}
	}
}
