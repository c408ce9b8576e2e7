package journal

import (
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"reflect"
	"testing"
)

// splitSegments turns fuzzer bytes into one to four segment files: the
// first byte picks the count, and each segment but the last is
// prefixed by its 16-bit little-endian length (clamped to what is
// left); the last segment takes the rest.
func splitSegments(data []byte) [][]byte {
	if len(data) == 0 {
		return [][]byte{nil}
	}
	n := 1 + int(data[0]%4)
	data = data[1:]
	var segs [][]byte
	for i := 0; i < n-1 && len(data) >= 2; i++ {
		l := min(int(binary.LittleEndian.Uint16(data)), len(data)-2)
		segs = append(segs, data[2:2+l])
		data = data[2+l:]
	}
	return append(segs, data)
}

// FuzzJournalOpen writes fuzzer bytes as segment files and opens the
// journal on them. The contract under fuzzing:
//
//   - Open never panics and never fails because of segment content.
//   - Its repair sticks: a second Open truncates and drops nothing more
//     and returns the same States().
//   - Recovery keeps a prefix of the records written: the states equal
//     the fold of every valid frame up to the first invalid one (later
//     segments dropped), decoded and folded by the reference below.
//
// The committed corpus (testdata/fuzz/FuzzJournalOpen) holds the
// on-disk states of the torn-tail, corrupt-CRC and rotation tests: a
// record torn inside its header or its payload, a flipped payload byte
// (alone, and followed by a segment that must be dropped), and a
// rotation that crashed before deleting the old segment (whole, and
// with its compacted segment torn).
func FuzzJournalOpen(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		segs := splitSegments(data)
		for i, s := range segs {
			if err := os.WriteFile(segmentPath(dir, firstSegmentIndex+i), s, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		openStates := func() (map[string]JobState, RecoveryStats) {
			j, err := Open(Options{Dir: dir, DisableFsync: true})
			if err != nil {
				t.Fatalf("Open failed on segment content: %v", err)
			}
			defer j.Close()
			return statesByID(j.States()), j.Stats()
		}
		first, _ := openStates()
		again, st := openStates()
		if st.TruncatedBytes != 0 || st.DroppedSegments != 0 {
			t.Fatalf("second Open repaired again: %+v", st)
		}
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("second Open changed the states:\n%+v\n%+v", first, again)
		}
		if want := foldPrefix(segs); !reflect.DeepEqual(first, want) {
			t.Fatalf("recovered states\n%+v\nwant the fold of the valid prefix\n%+v", first, want)
		}
	})
}

// statesByID keys states by job ID: States orders by Seq, which need
// not be unique in arbitrary segment content.
func statesByID(sts []*JobState) map[string]JobState {
	m := make(map[string]JobState, len(sts))
	for _, st := range sts {
		m[st.ID] = *st
	}
	return m
}

// foldPrefix is the reference recovery: it decodes each segment's
// frames up to the first invalid one, stops there, and folds the
// records into job states.
func foldPrefix(segs [][]byte) map[string]JobState {
	crc := crc32.MakeTable(crc32.Castagnoli)
	want := make(map[string]JobState)
	for _, seg := range segs {
		for len(seg) > 0 {
			var rec Record
			if len(seg) < 8 {
				return want
			}
			n := uint64(binary.LittleEndian.Uint32(seg))
			if n == 0 || n > uint64(len(seg)-8) || crc32.Checksum(seg[8:8+n], crc) != binary.LittleEndian.Uint32(seg[4:]) ||
				json.Unmarshal(seg[8:8+n], &rec) != nil {
				return want
			}
			seg = seg[8+n:]
			st, known := want[rec.Job]
			switch rec.Type {
			case TypeAccepted:
				want[rec.Job] = JobState{Seq: rec.Seq, ID: rec.Job, Key: rec.Key, ReqHash: rec.ReqHash,
					Request: rec.Request, Tenant: rec.Tenant, Status: TypeAccepted}
				continue
			case TypeEvicted:
				delete(want, rec.Job)
				continue
			case TypeRunning:
				st.Status = TypeRunning
			case TypeDone:
				st.Status, st.ResultHash, st.Results = TypeDone, rec.ResultHash, rec.Results
			case TypeFailed, TypeCanceled:
				st.Status, st.Code, st.Error = rec.Type, rec.Code, rec.Error
			default:
				continue
			}
			if known {
				want[rec.Job] = st
			}
		}
	}
	return want
}
