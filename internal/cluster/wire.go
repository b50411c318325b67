// Package cluster runs the RIPS phase protocol across ripsd processes:
// one node per process, a coordinator elected by consistent-hash ring
// position per job, and the unchanged pure planners (MWA, the tree
// walk, the cube walk) planning over a mirror topology whose "nodes"
// are whole processes — the cluster-level analogue of the hybrid
// backend's affinity domains.
//
// Everything on the wire is a rips-wire/v1 frame: a fixed header
// (magic, version, type, payload length, CRC-32) followed by a
// canonical big-endian payload. Decoding is total — truncated input,
// checksum mismatches and version skew are typed errors, never panics,
// so a node survives any bytes a peer (or a port scanner) throws at
// it.
package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
)

// WireSchema names the frame format; it appears in docs and status
// output, and the version byte below is its authoritative encoding.
const WireSchema = "rips-wire/v1"

const (
	wireVersion = 1
	headerSize  = 4 + 1 + 1 + 4 + 4
	// maxPayload bounds a frame so a corrupt length field cannot make
	// a reader allocate unbounded memory. Task batches dominate frame
	// sizes and stay far below this.
	maxPayload = 16 << 20
)

var wireMagic = [4]byte{'R', 'I', 'P', 'W'}

// frameType tags a frame's payload encoding.
type frameType byte

// Type numbers are the wire's: a retired type keeps its number reserved
// (the blank entries below), so a frame from a node that still speaks it
// is refused as unknown rather than misread as something else.
const (
	fInvalid   frameType = iota
	fJoin                // addr — announce membership
	fMembers             // []addr — full membership reply
	fPing                // addr — liveness probe, replied with fMembers
	fEcho                // opaque bytes — latency probe
	fEchoReply           // the echoed bytes
	fSubmit              // rips-job/v1 document
	fResult              // job outcome (resultMsg)
	fError               // string — request-level failure
	fHeartbeat           // empty — keeps per-frame read deadlines alive
	fAttach              // attachMsg — coordinator recruits a member
	fAttachOK            // loadsMsg — member attached, reports its load
	fDrained             // jobMsg — member's queue ran dry: its load report of the phase it causes
	fPhase               // jobMsg — stop-the-world: pause and report load
	fLoads               // loadsMsg — member's queue length, paused
	_                    // 15 reserved: was fTake (coordinator → donor, "give count tasks to member `to`")
	fBatch               // batch — serialized tasks, donor member → receiving member on a member link
	_                    // 17 reserved: was fPut (a batch relayed coordinator → receiver)
	_                    // 18 reserved: was fPutOK (receiver → coordinator, tasks installed)
	fRound               // roundMsg — advance to round r, restage roots
	_                    // 20 reserved: was fResume (coordinator → member, phase over)
	fFinish              // jobMsg — job complete, report counters
	fCounters            // countersMsg — member's final tallies
	fCancel              // cancelMsg — abandon the job
	fPlan                // planMsg — a member's sends and receives of one phase, in plan order; it resumes after the last
	fLink                // linkMsg — first frame of a member link: which job, from which member
)

var frameNames = map[frameType]string{
	fJoin: "join", fMembers: "members", fPing: "ping", fEcho: "echo",
	fEchoReply: "echo-reply", fSubmit: "submit", fResult: "result",
	fError: "error", fHeartbeat: "heartbeat", fAttach: "attach",
	fAttachOK: "attach-ok", fDrained: "drained", fPhase: "phase",
	fLoads: "loads", fBatch: "batch", fRound: "round",
	fFinish: "finish", fCounters: "counters", fCancel: "cancel",
	fPlan: "plan", fLink: "link",
}

func (t frameType) String() string {
	if s, ok := frameNames[t]; ok {
		return s
	}
	return fmt.Sprintf("frame(%d)", byte(t))
}

// Typed wire errors. Readers distinguish a peer speaking another
// protocol (bad magic), a peer from the future (version skew), line
// corruption (checksum) and a short read (truncation) because each
// demands a different reaction — and because the difference is what
// the corruption tests pin down.
var (
	// ErrBadMagic: the stream does not start with a rips-wire frame.
	ErrBadMagic = errors.New("cluster: bad frame magic (peer is not speaking rips-wire)")
	// ErrChecksum: the payload arrived but its CRC-32 disagrees.
	ErrChecksum = errors.New("cluster: frame checksum mismatch (payload corrupted in transit)")
	// ErrFrameTooLarge: the length field exceeds maxPayload.
	ErrFrameTooLarge = errors.New("cluster: frame exceeds the rips-wire payload bound")
	// ErrTruncated: the stream ended inside a frame.
	ErrTruncated = errors.New("cluster: truncated frame")
)

// VersionError reports a frame from an incompatible protocol version.
type VersionError struct {
	Got byte
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("cluster: peer speaks rips-wire version %d, this node speaks %d", e.Got, wireVersion)
}

// smallFrame is the largest frame that is copied into one buffer and
// written in a single call; a larger payload is written in place.
const smallFrame = 512

// writeFrame writes one frame. The payload may be nil (length 0). A
// small frame goes out as one Write. A large one — a task batch — goes
// out as header and payload in one net.Buffers, uncopied: a single
// writev on a TCP connection, two Writes in a row anywhere else, so a
// writer shared between goroutines needs the caller's lock either way
// (peer.send holds it).
func writeFrame(w io.Writer, t frameType, payload []byte) error {
	if len(payload) > maxPayload {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, len(payload))
	}
	small := headerSize+len(payload) <= smallFrame
	size := headerSize
	if small {
		size += len(payload)
	}
	hdr := make([]byte, headerSize, size)
	copy(hdr[0:4], wireMagic[:])
	hdr[4] = wireVersion
	hdr[5] = byte(t)
	binary.BigEndian.PutUint32(hdr[6:10], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[10:14], crc32.ChecksumIEEE(payload))
	if small {
		_, err := w.Write(append(hdr, payload...))
		return err
	}
	_, err := (&net.Buffers{hdr, payload}).WriteTo(w)
	return err
}

// readStep is the first allocation readPayload makes for a payload,
// whatever length the header claims; readGrowth is how far past the bytes
// it holds each later allocation may reach.
const (
	readStep   = 64 << 10
	readGrowth = 8
)

// readPayload reads an n-byte payload into a buffer that grows with the
// bytes received, never with the bytes announced: a header is fourteen
// unauthenticated bytes, and nothing vouches for its length field until
// the payload is in and the CRC agrees. The buffer starts at
// min(n, readStep) and is regrown, only once it is full, to readGrowth
// times its size: a reader never holds more than readGrowth times what
// the peer has actually sent (plus readStep), an ordinary batch — tens of
// KB — is read into its one exact allocation, and the largest — half a
// deep frontier, hundreds of KB — costs one 64 KiB copy on top.
func readPayload(r io.Reader, n int) ([]byte, error) {
	payload := make([]byte, 0, min(n, readStep))
	for len(payload) < n {
		if len(payload) == cap(payload) {
			grown := make([]byte, len(payload), min(n, readGrowth*cap(payload)))
			copy(grown, payload)
			payload = grown
		}
		m, err := io.ReadFull(r, payload[len(payload):cap(payload)])
		payload = payload[:len(payload)+m]
		if err != nil {
			return nil, err
		}
	}
	return payload, nil
}

// readFrame reads one frame, verifying magic, version and checksum.
// io.EOF is returned bare only at a clean frame boundary; inside a
// frame the error wraps ErrTruncated.
func readFrame(r io.Reader) (frameType, []byte, error) {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return fInvalid, nil, io.EOF
		}
		return fInvalid, nil, fmt.Errorf("%w: %v", ErrTruncated, err)
	}
	if [4]byte(hdr[0:4]) != wireMagic {
		return fInvalid, nil, ErrBadMagic
	}
	if hdr[4] != wireVersion {
		return fInvalid, nil, &VersionError{Got: hdr[4]}
	}
	t := frameType(hdr[5])
	n := binary.BigEndian.Uint32(hdr[6:10])
	sum := binary.BigEndian.Uint32(hdr[10:14])
	if n > maxPayload {
		return fInvalid, nil, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	payload, err := readPayload(r, int(n))
	if err != nil {
		return fInvalid, nil, fmt.Errorf("%w: %v", ErrTruncated, err)
	}
	if crc32.ChecksumIEEE(payload) != sum {
		return fInvalid, nil, ErrChecksum
	}
	return t, payload, nil
}
