package broker

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"pubsubcd/internal/telemetry"
)

// The transport speaks one of several wire encodings — codecs — over
// the same TCP stream. Every connection starts in line-delimited JSON
// (the codec the protocol launched with, and the one raw tools and
// old peers speak); a client that supports more sends a "hello" frame
// listing its codecs in preference order, the server picks the first
// one it also supports and answers in JSON, and both sides switch for
// the rest of the connection. A peer that never sends a hello keeps
// talking JSON forever, which is what keeps pre-codec clients, the
// chaos suites' raw dials, and `nc` debugging working.
//
// The binary codec (codec_binary.go) is the default preference: a
// length-prefixed frame of varint-tagged fields, allocation-light and
// forward-compatible (unknown fields are skipped, mirroring the JSON
// codec's unknown-key behavior).

// Message is the wire envelope every codec encodes. One struct serves
// requests, responses and asynchronous notifications; which fields are
// meaningful depends on Type.
type Message struct {
	Type string `json:"type"`
	// Seq correlates a request with its response: the server echoes it.
	// 0 (clients that never set it, and ping probes) means
	// uncorrelated.
	Seq uint64 `json:"seq,omitempty"`
	// Request fields.
	ID       string   `json:"id,omitempty"`
	Version  int      `json:"version,omitempty"`
	Topics   []string `json:"topics,omitempty"`
	Keywords []string `json:"keywords,omitempty"`
	Proxy    int      `json:"proxy,omitempty"`
	// Body is the content payload: a publish's page, a fetch response's
	// page, a handoff's state blob. The JSON codec writes it as standard
	// base64 (encoding/json's form for bytes); the binary codec writes
	// the bytes. A decoded Body never aliases the read buffer.
	Body []byte `json:"body,omitempty"`
	// Response fields.
	OK      bool   `json:"ok,omitempty"`
	Error   string `json:"error,omitempty"`
	Matched int    `json:"matched,omitempty"`
	SubID   int64  `json:"subId,omitempty"`
	// Notification payload.
	Notification *Notification `json:"notification,omitempty"`
	// MoreSubIDs, on a notify frame, lists further subscriptions on this
	// connection that the same notification matched: the frame stands
	// for 1+len(MoreSubIDs) notifications that differ only in their
	// SubscriptionID (Notification.SubscriptionID first, then these in
	// order). A server sends it only to peers whose hello advertised
	// capCoalesce: a peer that predates the field would skip it and
	// silently lose every notification but the first.
	MoreSubIDs []int64 `json:"moreSubIds,omitempty"`
	// Cluster routing headers. Ring is the sender's ring version (0 =
	// not clustered); a clustered backend rejects requests routed with
	// a stale view so the sender re-resolves ownership. Part is the
	// target partition plus one (0 = unrouted), so partition 0 survives
	// omitempty.
	Ring uint64 `json:"ring,omitempty"`
	Part int    `json:"part,omitempty"`
	// DeadlineMS is the sender's remaining time budget for this request
	// in milliseconds (0 = no deadline). It is relative, not an absolute
	// timestamp, so clock skew between peers cannot invalidate it; each
	// hop re-stamps the field with whatever budget remains. Receivers
	// bound their handling context by it and refuse work whose budget is
	// gone instead of doing it late. Peers that predate the field ignore
	// it — the binary codec skips unknown tags and the JSON codec skips
	// unknown keys, the same forward-compatibility story as Trace.
	DeadlineMS int64 `json:"deadlineMs,omitempty"`
	// Gap, on a notify frame, is the count of notifications dropped for
	// this connection since the last frame (slow-consumer drop-oldest
	// policy). A gap frame may carry no Notification at all; receivers
	// that predate the field ignore it.
	Gap int64 `json:"gap,omitempty"`
	// PublishedAt, on a notify frame, is the elapsed time in nanoseconds
	// between the broker accepting the publish and encoding this frame —
	// the broker-side share of the delivery latency, measured entirely on
	// the broker's own monotonic clock. Like DeadlineMS it is relative,
	// never an absolute timestamp, so clock skew between peers cannot
	// produce negative or absurd samples: the receiver adds the value to
	// its own receive time conceptually but records it as-is. 0 means the
	// sender predates the field (or the ingress time was unknown); peers
	// that predate it skip the unknown tag/key, the same
	// forward-compatibility story as Trace and DeadlineMS.
	PublishedAt int64 `json:"publishedAt,omitempty"`
	// Trace is the optional distributed-trace context of the sender
	// ("<32 hex trace ID>-<16 hex span ID>", see telemetry.SpanContext).
	// Peers that predate tracing ignore the field; receivers treat a
	// malformed value as absent — propagation is best-effort and never
	// fails a request.
	Trace string `json:"trace,omitempty"`
	// Negotiation fields ("hello" requests and their responses).
	// Codecs is the client's codec names in preference order; Codec the
	// server's selection; MaxFrame the sender's frame-size limit, with
	// the response carrying the negotiated min of both. Caps lists the
	// optional wire behaviours the client can decode (capCoalesce); the
	// server turns on the ones it knows for that connection only.
	Codecs   []string `json:"codecs,omitempty"`
	MaxFrame int      `json:"maxFrame,omitempty"`
	Codec    string   `json:"codec,omitempty"`
	Caps     []string `json:"caps,omitempty"`

	// notifScratch lets the notify fan-out path point Notification at
	// storage inside the (pooled) Message instead of a fresh heap
	// allocation per notify. Unexported: codecs never see it.
	notifScratch Notification
	// sub, on a client's subscribe request, is the registry entry the
	// client's read loop binds to the SubID of the response. Unexported:
	// codecs never see it.
	sub *clientSub
}

// DefaultMaxFrame is the frame-size limit both sides apply when none
// is configured: large enough for multi-megabyte page bodies, small
// enough that one hostile frame cannot balloon memory.
const DefaultMaxFrame = 16 << 20

// FrameTooLargeError reports a frame exceeding the negotiated (or
// configured) frame-size limit. On the read side the oversized frame
// has been discarded and the connection remains usable; on the write
// side nothing was sent.
type FrameTooLargeError struct {
	Codec string // codec that hit the limit ("" when unknown)
	Size  int    // observed frame size in bytes
	Limit int    // the limit it exceeded
}

func (e *FrameTooLargeError) Error() string {
	return fmt.Sprintf("broker: frame too large: %d bytes exceeds limit %d", e.Size, e.Limit)
}

// Codec is one wire encoding of the broker protocol. Implementations
// must be safe for concurrent use (the server shares one instance
// across connections) and must never panic on hostile input: any byte
// stream yields messages or errors.
//
// The read side is split in two so transports can meter frames without
// decoding them: ReadFrame extracts one frame's payload from the
// stream (appending into buf, which may be nil, and returning the
// possibly-grown slice for reuse), enforcing maxFrame by discarding
// oversized frames and returning *FrameTooLargeError with the stream
// still framed; DecodeFrame parses a payload into m, overwriting it.
// Decoded messages must own their memory — no field may alias payload,
// because the transport reuses the read buffer for the next frame.
// A codec must carry every exported Message field, MoreSubIDs included:
// a notify frame that loses it loses notifications.
//
// AppendFrame appends one complete encoded frame (framing included) to
// dst. Encoding happens at append time, so a connection can switch
// codecs between frames without re-encoding anything in flight.
type Codec interface {
	Name() string
	AppendFrame(dst []byte, m *Message) ([]byte, error)
	ReadFrame(br *bufio.Reader, buf []byte, maxFrame int) ([]byte, error)
	DecodeFrame(payload []byte, m *Message) error
}

// Codec names, as they appear in hello frames and -codecs flags.
const (
	codecJSON   = "json"
	codecBinary = "binary"
)

// capCoalesce is the hello capability that lets a server coalesce the
// notifications one publish matched on a connection into a single
// notify frame (Message.MoreSubIDs).
const capCoalesce = "coalesce"

// JSONCodec returns the line-delimited JSON codec: one JSON object per
// newline-terminated line. It is every connection's initial codec and
// the compatibility fallback.
func JSONCodec() Codec { return jsonCodec{} }

// CodecByName resolves a codec name ("binary", "json") to its
// implementation; ok is false for unknown names. Command-line flags
// and config files use it.
func CodecByName(name string) (Codec, bool) {
	switch name {
	case codecJSON:
		return jsonCodec{}, true
	case codecBinary:
		return binaryCodec{}, true
	}
	return nil, false
}

// codecNames lists the names of a codec set, for error messages.
func codecNames(codecs []Codec) []string {
	names := make([]string, len(codecs))
	for i, c := range codecs {
		names[i] = c.Name()
	}
	return names
}

// codecByName finds a codec by name in a set, nil when absent.
func codecByName(codecs []Codec, name string) Codec {
	for _, c := range codecs {
		if c.Name() == name {
			return c
		}
	}
	return nil
}

// defaultCodecs is the negotiation set both sides use when none is
// configured: binary preferred, JSON kept as the fallback.
func defaultCodecs() []Codec { return []Codec{binaryCodec{}, jsonCodec{}} }

// jsonCodec is the line-delimited JSON encoding.
type jsonCodec struct{}

func (jsonCodec) Name() string { return codecJSON }

func (jsonCodec) AppendFrame(dst []byte, m *Message) ([]byte, error) {
	b, err := json.Marshal(m)
	if err != nil {
		return dst, err
	}
	return append(append(dst, b...), '\n'), nil
}

func (jsonCodec) ReadFrame(br *bufio.Reader, buf []byte, maxFrame int) ([]byte, error) {
	buf = buf[:0]
	for {
		frag, err := br.ReadSlice('\n')
		if maxFrame > 0 && len(buf)+len(frag) > maxFrame+1 { // +1: the newline
			// Discard the rest of the oversized line so the stream stays
			// framed and the connection survives.
			size := len(buf) + len(frag)
			for err == bufio.ErrBufferFull {
				frag, err = br.ReadSlice('\n')
				size += len(frag)
			}
			if err != nil {
				return buf, err
			}
			return buf, &FrameTooLargeError{Codec: codecJSON, Size: size - 1, Limit: maxFrame}
		}
		buf = append(buf, frag...)
		if err == bufio.ErrBufferFull {
			continue
		}
		if err != nil {
			return buf, err
		}
		buf = buf[:len(buf)-1] // strip '\n'
		if n := len(buf); n > 0 && buf[n-1] == '\r' {
			buf = buf[:n-1]
		}
		return buf, nil
	}
}

func (jsonCodec) DecodeFrame(payload []byte, m *Message) error {
	*m = Message{}
	return json.Unmarshal(payload, m)
}

// countingReader counts bytes read through it into a telemetry counter
// (nil counter counts nothing). It sits between the net.Conn and the
// transport's buffered reader.
type countingReader struct {
	r io.Reader
	c *telemetry.Counter
}

func (cr *countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	if cr.c != nil && n > 0 {
		cr.c.Add(int64(n))
	}
	return n, err
}

// readBufSize is the transport's buffered-reader size. Frames larger
// than it are assembled across reads; it is a throughput knob, not a
// frame-size limit (that is maxFrame).
const readBufSize = 64 << 10
