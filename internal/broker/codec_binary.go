package broker

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"
)

// The binary codec: each frame is a 4-byte big-endian payload length
// followed by the payload. The payload starts with a one-byte message
// type code; the rest is a sequence of protobuf-style tagged fields —
// tag = fieldID<<1 | wireType, with wire type 0 a varint and wire type
// 1 a length-delimited byte string. Signed integers use zigzag
// varints. Unknown field IDs are skipped, so new fields can be added
// without breaking old peers (the same forward-compatibility contract
// the JSON codec gets from ignoring unknown keys; the "trace" field
// rollout relied on it). Bodies ride raw — no base64 detour — which is
// where most of the codec's byte and CPU savings come from.

// BinaryCodec returns the length-prefixed binary codec. It is the
// default first preference of both client and server; peers that never
// negotiate stay on JSON.
func BinaryCodec() Codec { return binaryCodec{} }

type binaryCodec struct{}

func (binaryCodec) Name() string { return codecBinary }

// Message type codes (payload byte 0). Code 0 means "unknown": the
// type string then rides field fType.
var msgTypeNames = [...]string{
	0: "",
	1: msgSubscribe,
	2: msgUnsubscribe,
	3: msgPublish,
	4: msgFetch,
	5: msgPing,
	6: msgNotify,
	7: msgResponse,
	8: msgHandoff,
	9: msgHello,
}

func msgTypeCode(t string) byte {
	for code, name := range msgTypeNames {
		if code != 0 && name == t {
			return byte(code)
		}
	}
	return 0
}

// Field IDs of the binary payload.
const (
	fSeq        = 1  // varint
	fID         = 2  // bytes
	fVersion    = 3  // zigzag varint
	fTopic      = 4  // bytes, repeated
	fKeyword    = 5  // bytes, repeated
	fProxy      = 6  // zigzag varint
	fBody       = 7  // bytes (raw content payload)
	fOK         = 8  // varint bool
	fError      = 9  // bytes
	fMatched    = 10 // zigzag varint
	fSubID      = 11 // zigzag varint
	fRing       = 12 // varint
	fPart       = 13 // zigzag varint
	fTrace      = 14 // bytes
	fNotifPage  = 15 // bytes (presence materializes Notification)
	fNotifVer   = 16 // zigzag varint
	fNotifSize  = 17 // zigzag varint
	fNotifSubID = 18 // zigzag varint
	fCodecName  = 19 // bytes, repeated (hello offer)
	fMaxFrame   = 20 // zigzag varint
	fCodecSel   = 21 // bytes (hello response selection)
	fType       = 22 // bytes (message type when the code byte is 0)
	fDeadline   = 23 // zigzag varint (remaining budget, milliseconds)
	fGap        = 24 // zigzag varint (notifications dropped before this frame)
	fPubAt      = 25 // zigzag varint (broker-side publish→encode latency, ns)
	fMoreSubIDs = 26 // bytes: packed zigzag varints (coalesced subscriptions)
	fCap        = 27 // bytes, repeated (hello capability)
)

const (
	wtVarint = 0
	wtBytes  = 1
)

func appendTag(dst []byte, id, wt uint64) []byte {
	return binary.AppendUvarint(dst, id<<1|wt)
}

func appendUvarintField(dst []byte, id, v uint64) []byte {
	dst = appendTag(dst, id, wtVarint)
	return binary.AppendUvarint(dst, v)
}

func appendZigzagField(dst []byte, id uint64, v int64) []byte {
	dst = appendTag(dst, id, wtVarint)
	return binary.AppendVarint(dst, v)
}

func appendBytesField(dst []byte, id uint64, v []byte) []byte {
	dst = appendTag(dst, id, wtBytes)
	dst = binary.AppendUvarint(dst, uint64(len(v)))
	return append(dst, v...)
}

func appendStringField(dst []byte, id uint64, v string) []byte {
	dst = appendTag(dst, id, wtBytes)
	dst = binary.AppendUvarint(dst, uint64(len(v)))
	return append(dst, v...)
}

// appendPackedZigzagField writes vs as one length-delimited field of
// back-to-back zigzag varints: one tag and one length for the whole
// list instead of a tag per element.
func appendPackedZigzagField(dst []byte, id uint64, vs []int64) []byte {
	var scratch [binary.MaxVarintLen64]byte
	size := 0
	for _, v := range vs {
		size += binary.PutVarint(scratch[:], v)
	}
	dst = appendTag(dst, id, wtBytes)
	dst = binary.AppendUvarint(dst, uint64(size))
	for _, v := range vs {
		dst = binary.AppendVarint(dst, v)
	}
	return dst
}

func (binaryCodec) AppendFrame(dst []byte, m *Message) ([]byte, error) {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0) // length prefix, patched below
	dst = appendBinaryPayload(dst, m)
	binary.BigEndian.PutUint32(dst[start:], uint32(len(dst)-start-4))
	return dst, nil
}

func appendBinaryPayload(dst []byte, m *Message) []byte {
	code := msgTypeCode(m.Type)
	dst = append(dst, code)
	if m.Seq != 0 {
		dst = appendUvarintField(dst, fSeq, m.Seq)
	}
	if m.ID != "" {
		dst = appendStringField(dst, fID, m.ID)
	}
	if m.Version != 0 {
		dst = appendZigzagField(dst, fVersion, int64(m.Version))
	}
	for _, t := range m.Topics {
		dst = appendStringField(dst, fTopic, t)
	}
	for _, k := range m.Keywords {
		dst = appendStringField(dst, fKeyword, k)
	}
	if m.Proxy != 0 {
		dst = appendZigzagField(dst, fProxy, int64(m.Proxy))
	}
	if len(m.Body) > 0 {
		dst = appendBytesField(dst, fBody, m.Body)
	}
	if m.OK {
		dst = appendUvarintField(dst, fOK, 1)
	}
	if m.Error != "" {
		dst = appendStringField(dst, fError, m.Error)
	}
	if m.Matched != 0 {
		dst = appendZigzagField(dst, fMatched, int64(m.Matched))
	}
	if m.SubID != 0 {
		dst = appendZigzagField(dst, fSubID, m.SubID)
	}
	if m.Ring != 0 {
		dst = appendUvarintField(dst, fRing, m.Ring)
	}
	if m.Part != 0 {
		dst = appendZigzagField(dst, fPart, int64(m.Part))
	}
	if m.Trace != "" {
		dst = appendStringField(dst, fTrace, m.Trace)
	}
	if m.DeadlineMS != 0 {
		dst = appendZigzagField(dst, fDeadline, m.DeadlineMS)
	}
	if m.Gap != 0 {
		dst = appendZigzagField(dst, fGap, m.Gap)
	}
	if m.PublishedAt != 0 {
		dst = appendZigzagField(dst, fPubAt, m.PublishedAt)
	}
	if n := m.Notification; n != nil {
		// PageID is written unconditionally: its presence is what makes
		// the decoder materialize the Notification.
		dst = appendStringField(dst, fNotifPage, n.PageID)
		if n.Version != 0 {
			dst = appendZigzagField(dst, fNotifVer, int64(n.Version))
		}
		if n.Size != 0 {
			dst = appendZigzagField(dst, fNotifSize, int64(n.Size))
		}
		if n.SubscriptionID != 0 {
			dst = appendZigzagField(dst, fNotifSubID, n.SubscriptionID)
		}
	}
	if len(m.MoreSubIDs) > 0 {
		dst = appendPackedZigzagField(dst, fMoreSubIDs, m.MoreSubIDs)
	}
	for _, name := range m.Codecs {
		dst = appendStringField(dst, fCodecName, name)
	}
	if m.MaxFrame != 0 {
		dst = appendZigzagField(dst, fMaxFrame, int64(m.MaxFrame))
	}
	if m.Codec != "" {
		dst = appendStringField(dst, fCodecSel, m.Codec)
	}
	for _, c := range m.Caps {
		dst = appendStringField(dst, fCap, c)
	}
	if code == 0 && m.Type != "" {
		dst = appendStringField(dst, fType, m.Type)
	}
	return dst
}

func (binaryCodec) ReadFrame(br *bufio.Reader, buf []byte, maxFrame int) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return buf[:0], err
	}
	n := int(binary.BigEndian.Uint32(hdr[:]))
	if maxFrame > 0 && n > maxFrame {
		// The length is trusted for discarding: skip the frame, keep the
		// stream aligned, keep the connection alive.
		if _, err := io.CopyN(io.Discard, br, int64(n)); err != nil {
			return buf[:0], err
		}
		return buf[:0], &FrameTooLargeError{Codec: codecBinary, Size: n, Limit: maxFrame}
	}
	if cap(buf) < n {
		buf = make([]byte, n, n+n/4)
	} else {
		buf = buf[:n]
	}
	if _, err := io.ReadFull(br, buf); err != nil {
		return buf[:0], err
	}
	return buf, nil
}

var (
	errEmptyFrame = errors.New("empty binary frame")
	errBadField   = errors.New("truncated or malformed binary field")
)

// zigzag decodes the zigzag representation binary.AppendVarint writes.
func zigzag(u uint64) int64 {
	return int64(u>>1) ^ -int64(u&1)
}

// DecodeFrame reuses the backing array of m's previous MoreSubIDs, so
// a read loop that decodes every frame into one Message expands
// coalesced notify frames without allocating.
func (binaryCodec) DecodeFrame(payload []byte, m *Message) error {
	more := m.MoreSubIDs[:0]
	*m = Message{}
	if len(payload) == 0 {
		return errEmptyFrame
	}
	if code := payload[0]; int(code) < len(msgTypeNames) {
		m.Type = msgTypeNames[code]
	}
	b := payload[1:]
	for len(b) > 0 {
		tag, n := binary.Uvarint(b)
		if n <= 0 {
			return errBadField
		}
		b = b[n:]
		id, wt := tag>>1, tag&1
		switch wt {
		case wtVarint:
			u, n := binary.Uvarint(b)
			if n <= 0 {
				return errBadField
			}
			b = b[n:]
			switch id {
			case fSeq:
				m.Seq = u
			case fVersion:
				m.Version = int(zigzag(u))
			case fProxy:
				m.Proxy = int(zigzag(u))
			case fOK:
				m.OK = u != 0
			case fMatched:
				m.Matched = int(zigzag(u))
			case fSubID:
				m.SubID = zigzag(u)
			case fRing:
				m.Ring = u
			case fPart:
				m.Part = int(zigzag(u))
			case fNotifVer:
				notifOf(m).Version = int(zigzag(u))
			case fNotifSize:
				notifOf(m).Size = zigzag(u)
			case fNotifSubID:
				notifOf(m).SubscriptionID = zigzag(u)
			case fMaxFrame:
				m.MaxFrame = int(zigzag(u))
			case fDeadline:
				m.DeadlineMS = zigzag(u)
			case fGap:
				m.Gap = zigzag(u)
			case fPubAt:
				m.PublishedAt = zigzag(u)
			}
			// Unknown varint fields: value already consumed, skip.
		case wtBytes:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errBadField
			}
			v := b[n : n+int(l)]
			b = b[n+int(l):]
			// All decoded fields copy out of payload: the transport
			// reuses the read buffer for the next frame, and brokers
			// retain decoded topics/bodies in their stores.
			switch id {
			case fID:
				m.ID = string(v)
			case fTopic:
				m.Topics = append(m.Topics, string(v))
			case fKeyword:
				m.Keywords = append(m.Keywords, string(v))
			case fBody:
				m.Body = append(make([]byte, 0, len(v)), v...)
			case fError:
				m.Error = string(v)
			case fTrace:
				m.Trace = string(v)
			case fNotifPage:
				notifOf(m).PageID = string(v)
			case fCodecName:
				m.Codecs = append(m.Codecs, string(v))
			case fCodecSel:
				m.Codec = string(v)
			case fCap:
				m.Caps = append(m.Caps, string(v))
			case fMoreSubIDs:
				for len(v) > 0 {
					u, n := binary.Uvarint(v)
					if n <= 0 {
						return errBadField
					}
					more = append(more, zigzag(u))
					v = v[n:]
				}
				m.MoreSubIDs = more
			case fType:
				if m.Type == "" {
					m.Type = string(v)
				}
			}
		}
	}
	return nil
}

// notifOf lazily materializes the message's Notification during decode.
func notifOf(m *Message) *Notification {
	if m.Notification == nil {
		m.Notification = &Notification{}
	}
	return m.Notification
}
