package cluster

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"reflect"
	"runtime"
	"testing"
)

// TestFrameRoundTrip proves write→read is the identity for every
// frame type and payload shape, including empty and large payloads.
func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte{0xAB}, 70000)}
	types := []frameType{fJoin, fMembers, fPing, fEcho, fSubmit, fResult, fHeartbeat, fAttach, fBatch, fCancel}
	for _, ft := range types {
		for _, p := range payloads {
			var buf bytes.Buffer
			if err := writeFrame(&buf, ft, p); err != nil {
				t.Fatalf("writeFrame(%v, %d bytes): %v", ft, len(p), err)
			}
			gt, gp, err := readFrame(&buf)
			if err != nil {
				t.Fatalf("readFrame(%v, %d bytes): %v", ft, len(p), err)
			}
			if gt != ft || !bytes.Equal(gp, p) {
				t.Fatalf("round trip %v/%d bytes: got %v/%d bytes", ft, len(p), gt, len(gp))
			}
		}
	}
}

// TestFrameGolden pins the exact byte layout of a frame so the wire
// format cannot drift silently: magic, version, type, length, CRC,
// payload.
func TestFrameGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, fEcho, []byte("hi")); err != nil {
		t.Fatal(err)
	}
	want := []byte{'R', 'I', 'P', 'W', 1, byte(fEcho), 0, 0, 0, 2}
	want = binary.BigEndian.AppendUint32(want, crc32.ChecksumIEEE([]byte("hi")))
	want = append(want, 'h', 'i')
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("golden frame mismatch:\n got %x\nwant %x", buf.Bytes(), want)
	}
}

// TestFrameCorruption proves every malformed input becomes a typed
// error — never a panic, never a silent misread.
func TestFrameCorruption(t *testing.T) {
	good := func() []byte {
		var buf bytes.Buffer
		if err := writeFrame(&buf, fEcho, []byte("payload")); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	t.Run("truncated header", func(t *testing.T) {
		_, _, err := readFrame(bytes.NewReader(good()[:headerSize-3]))
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("want ErrTruncated, got %v", err)
		}
	})
	t.Run("truncated payload", func(t *testing.T) {
		f := good()
		_, _, err := readFrame(bytes.NewReader(f[:len(f)-2]))
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("want ErrTruncated, got %v", err)
		}
	})
	t.Run("clean EOF", func(t *testing.T) {
		_, _, err := readFrame(bytes.NewReader(nil))
		if err != io.EOF {
			t.Fatalf("want bare io.EOF at a frame boundary, got %v", err)
		}
	})
	t.Run("bad magic", func(t *testing.T) {
		f := good()
		f[0] = 'X'
		_, _, err := readFrame(bytes.NewReader(f))
		if !errors.Is(err, ErrBadMagic) {
			t.Fatalf("want ErrBadMagic, got %v", err)
		}
	})
	t.Run("version skew", func(t *testing.T) {
		f := good()
		f[4] = 9
		_, _, err := readFrame(bytes.NewReader(f))
		var ve *VersionError
		if !errors.As(err, &ve) || ve.Got != 9 {
			t.Fatalf("want VersionError{Got: 9}, got %v", err)
		}
	})
	t.Run("bad checksum", func(t *testing.T) {
		f := good()
		f[len(f)-1] ^= 0xFF // flip a payload byte, CRC now disagrees
		_, _, err := readFrame(bytes.NewReader(f))
		if !errors.Is(err, ErrChecksum) {
			t.Fatalf("want ErrChecksum, got %v", err)
		}
	})
	t.Run("absurd length", func(t *testing.T) {
		f := good()
		binary.BigEndian.PutUint32(f[6:10], maxPayload+1)
		_, _, err := readFrame(bytes.NewReader(f))
		if !errors.Is(err, ErrFrameTooLarge) {
			t.Fatalf("want ErrFrameTooLarge, got %v", err)
		}
	})
}

// goldenAttach and goldenPlan are the messages whose bytes
// TestReadFrameAllocatesWhatArrives: a header is fourteen bytes anyone
// can send. One that claims the full 16 MiB and then hangs up must cost
// the reader its first step, not the claim; and a frame that does arrive
// in full still comes back whole across several steps.
func TestReadFrameAllocatesWhatArrives(t *testing.T) {
	hdr := []byte{'R', 'I', 'P', 'W', 1, byte(fEcho), 0, 0, 0, 0, 0, 0, 0, 0}
	binary.BigEndian.PutUint32(hdr[6:10], maxPayload)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := readFrame(bytes.NewReader(hdr))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("want ErrTruncated, got %v", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 128<<10 {
		t.Errorf("a 14-byte header claiming %d bytes made readFrame allocate %d", maxPayload, got)
	}

	big := bytes.Repeat([]byte{1, 2, 3, 4, 5, 6, 7}, 100000) // 700 kB: two regrowths past the first step
	var buf bytes.Buffer
	if err := writeFrame(&buf, fEcho, big); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&before)
	ft, got, err := readFrame(&buf)
	runtime.ReadMemStats(&after)
	if err != nil || ft != fEcho || !bytes.Equal(got, big) {
		t.Fatalf("a %d-byte frame read in steps came back as %v, %d bytes, %v", len(big), ft, len(got), err)
	}
	if spent := after.TotalAlloc - before.TotalAlloc; spent > 2*uint64(len(big)) {
		t.Errorf("reading %d bytes allocated %d", len(big), spent)
	}
}

// TestMessageGolden pins and the decoders' fuzz corpora start from.
func goldenAttach() attachMsg {
	return attachMsg{Job: 7, App: "nq", Size: 12, K: 3, Member: 2, Config: []byte(`{"backend":"cluster"}`),
		Key: "mem://a/7", Members: []string{"mem://a", "mem://b", "mem://c"}}
}

// goldenPlan is member 1 of 3 forwarding: six tasks in from member 0,
// three of them on to member 2.
func goldenPlan() planMsg {
	return planMsg{Job: 9, Ops: []planOp{{Recv: true, Peer: 0, Count: 6}, {Peer: 2, Count: 3}}}
}

// TestMessageGolden pins the bytes of the two frames this protocol
// version added, field by field.
func TestMessageGolden(t *testing.T) {
	wantPlan := []byte{
		0, 0, 0, 0, 0, 0, 0, 9, // job
		0, 0, 0, 2, // ops
		1, 0, 0, 0, 0, 0, 0, 0, 6, // receive from member 0, 6 tasks
		0, 0, 0, 0, 2, 0, 0, 0, 3, // send to member 2, 3 tasks
	}
	if got := goldenPlan().encode(); !bytes.Equal(got, wantPlan) {
		t.Errorf("plan bytes drifted:\n got %x\nwant %x", got, wantPlan)
	}
	wantLink := []byte{0, 0, 0, 9, 'm', 'e', 'm', ':', '/', '/', 'a', '/', '7', 0, 0, 0, 2}
	if got := (linkMsg{Key: "mem://a/7", From: 2}).encode(); !bytes.Equal(got, wantLink) {
		t.Errorf("link bytes drifted:\n got %x\nwant %x", got, wantLink)
	}
	// The type numbers are the wire's: the retired ones stay unassigned.
	for ft, want := range map[frameType]byte{fLoads: 14, fBatch: 16, fRound: 19, fFinish: 21, fCounters: 22, fCancel: 23, fPlan: 24, fLink: 25} {
		if byte(ft) != want {
			t.Errorf("frame %v has type number %d, want %d", ft, byte(ft), want)
		}
	}
}

// TestMessageRoundTrips proves each payload codec is its own inverse.
func TestMessageRoundTrips(t *testing.T) {
	t.Run("addr", func(t *testing.T) {
		got, err := decodeAddr(encodeAddr("10.0.0.1:7777"))
		if err != nil || got != "10.0.0.1:7777" {
			t.Fatalf("got %q, %v", got, err)
		}
	})
	t.Run("members", func(t *testing.T) {
		in := []string{"a:1", "b:2", "c:3"}
		got, err := decodeMembers(encodeMembers(in))
		if err != nil || len(got) != 3 || got[0] != "a:1" || got[2] != "c:3" {
			t.Fatalf("got %v, %v", got, err)
		}
	})
	t.Run("attach", func(t *testing.T) {
		in := goldenAttach()
		got, err := decodeAttach(in.encode())
		if err != nil || !reflect.DeepEqual(got, in) {
			t.Fatalf("got %+v, %v", got, err)
		}
	})
	t.Run("plan", func(t *testing.T) {
		in := goldenPlan()
		got, err := decodePlan(in.encode(), 3, 1)
		if err != nil || !reflect.DeepEqual(got, in) {
			t.Fatalf("got %+v, %v", got, err)
		}
		if got, err := decodePlan(planMsg{Job: 9}.encode(), 3, 1); err != nil || got.Job != 9 || len(got.Ops) != 0 {
			t.Fatalf("a bare resume decoded as %+v, %v", got, err)
		}
	})
	t.Run("link", func(t *testing.T) {
		in := linkMsg{Key: "mem://a/7", From: 2}
		got, err := decodeLink(in.encode())
		if err != nil || got != in {
			t.Fatalf("got %+v, %v", got, err)
		}
	})
	t.Run("batch", func(t *testing.T) {
		in := batchMsg{Job: 9, To: 1, Tasks: []wireTask{
			{ID: 1<<40 | 5, Origin: 1, Size: 16, Payload: []byte{1, 2, 3}},
			{ID: 2, Origin: 0, Size: 4, Payload: nil},
		}}
		got, err := decodeBatch(in.encode())
		if err != nil || got.Job != 9 || got.To != 1 || len(got.Tasks) != 2 {
			t.Fatalf("got %+v, %v", got, err)
		}
		if got.Tasks[0].ID != in.Tasks[0].ID || !bytes.Equal(got.Tasks[0].Payload, in.Tasks[0].Payload) {
			t.Fatalf("task 0 mangled: %+v", got.Tasks[0])
		}
	})
	t.Run("counters", func(t *testing.T) {
		in := countersMsg{Job: 3, Generated: 100, Executed: 100, Nonlocal: 40, AppResult: -7, Work: 12345, BusyNS: 99}
		got, err := decodeCounters(in.encode())
		if err != nil || got != in {
			t.Fatalf("got %+v, %v", got, err)
		}
	})
	t.Run("result", func(t *testing.T) {
		in := resultMsg{Workers: 3, Generated: 10, Executed: 10, Nonlocal: 4, AppResult: 92,
			Work: 55, Phases: 6, WallNS: 1e9, BusyNS: 3e9, Canceled: true, ErrKind: errNodeLost, ErrDetail: "mem://b"}
		got, err := decodeResult(in.encode())
		if err != nil || got != in {
			t.Fatalf("got %+v, %v", got, err)
		}
	})
}

// TestMessageDecodeErrors proves malformed payloads are errors, not
// panics and not misreads.
func TestMessageDecodeErrors(t *testing.T) {
	if _, err := decodeAttach([]byte{1, 2}); err == nil {
		t.Fatal("short attach decoded")
	}
	if _, err := decodeAttach(append(goldenAttach().encode(), 0xFF)); err == nil {
		t.Fatal("trailing garbage decoded")
	}
	for name, mod := range map[string]func(*attachMsg){
		"member out of range": func(m *attachMsg) { m.Member = 5 },
		"an address short":    func(m *attachMsg) { m.Members = m.Members[:2] },
		"no members":          func(m *attachMsg) { m.K, m.Member, m.Members = 0, 0, nil },
	} {
		m := goldenAttach()
		mod(&m)
		if _, err := decodeAttach(m.encode()); err == nil {
			t.Fatalf("attach with %s decoded", name)
		}
	}
	// A member count the payload cannot hold is refused before it sizes
	// anything.
	absurd := goldenAttach()
	absurd.Members = nil
	enc := absurd.encode()
	binary.BigEndian.PutUint32(enc[len(enc)-4:], 1<<31)
	if _, err := decodeAttach(enc); err == nil {
		t.Fatal("absurd member count decoded")
	}
	for name, bad := range map[string][]byte{
		"short":          goldenPlan().encode()[:20],
		"trailing":       append(goldenPlan().encode(), 0),
		"absurd count":   {0, 0, 0, 0, 0, 0, 0, 9, 0xff, 0xff, 0xff, 0xff},
		"peer out of K":  planMsg{Job: 9, Ops: []planOp{{Peer: 3, Count: 1}}}.encode(),
		"send to itself": planMsg{Job: 9, Ops: []planOp{{Peer: 1, Count: 1}}}.encode(),
		"recv from self": planMsg{Job: 9, Ops: []planOp{{Recv: true, Peer: 1, Count: 1}}}.encode(),
		"empty batch":    planMsg{Job: 9, Ops: []planOp{{Peer: 0, Count: 0}}}.encode(),
		"direction 2":    {0, 0, 0, 0, 0, 0, 0, 9, 0, 0, 0, 1, 2, 0, 0, 0, 0, 0, 0, 0, 1},
	} {
		if _, err := decodePlan(bad, 3, 1); err == nil {
			t.Fatalf("plan with %s decoded", name)
		}
	}
	if _, err := decodeLink(append(linkMsg{Key: "k", From: 1}.encode(), 0)); err == nil {
		t.Fatal("link with trailing bytes decoded")
	}
	if _, err := decodeLink([]byte{0, 0, 0, 9, 'k'}); err == nil {
		t.Fatal("short link decoded")
	}
	if _, err := decodeBatch([]byte{0}); err == nil {
		t.Fatal("short batch decoded")
	}
	if _, err := decodeResult([]byte{9, 9}); err == nil {
		t.Fatal("short result decoded")
	}
	// A bool byte that is neither 0 nor 1 must be rejected, or two
	// distinct wire documents would decode to the same message.
	rm := resultMsg{Workers: 1}.encode()
	rm[4+8*8] = 7 // the canceled byte
	if _, err := decodeResult(rm); err == nil {
		t.Fatal("non-canonical bool decoded")
	}
}

// TestRingRouting pins the consistent-hash routing rule: members sort
// by hash, a point routes to its successor, and the ring wraps.
func TestRingRouting(t *testing.T) {
	members := []string{"mem://a", "mem://b", "mem://c", "mem://d"}
	ringSort(members)
	for i := 1; i < len(members); i++ {
		if ringHash(members[i-1]) > ringHash(members[i]) {
			t.Fatalf("ring not sorted at %d", i)
		}
	}
	// A point exactly on a member routes to that member.
	for _, m := range members {
		if got := successor(members, ringHash(m)); got != m {
			t.Fatalf("successor(hash(%s)) = %s", m, got)
		}
	}
	// A point past the last member wraps to the first.
	last := ringHash(members[len(members)-1])
	if last != ^uint64(0) {
		if got := successor(members, last+1); got != members[0] {
			t.Fatalf("wrap: got %s, want %s", got, members[0])
		}
	}
}
