package broker

import (
	"bufio"
	"bytes"
	"reflect"
	"testing"
	"unicode/utf8"
)

// FuzzDecodeFrame feeds arbitrary bytes to both wire-frame decoders —
// the single entry point for untrusted input on a broker connection.
// Whatever the bytes, decoding must either yield a message or an
// error, never panic; and a decoded message must re-encode with either
// codec. It is also the codec differential: a message
// that decodes under one codec, re-encoded through the other, must
// decode to the same Message (MoreSubIDs included) and re-encode to
// the same bytes. Seed corpus lives in testdata/fuzz/FuzzDecodeFrame
// (JSON and binary frames; regenerate with tools/gencorpus).
func FuzzDecodeFrame(f *testing.F) {
	f.Add([]byte(`{"type":"subscribe","topics":["news"],"proxy":1,"seq":7}`))
	f.Add([]byte(`{"type":"publish","id":"p","version":2,"body":"aGVsbG8="}`))
	f.Add([]byte(`{"type":"publish","id":"p","body":"%%%not-base64%%%"}`))
	f.Add([]byte(`{"type":"fetch","id":"page-1"}`))
	f.Add([]byte(`{"type":"ping"}`))
	f.Add([]byte(`{"type":"bogus","seq":18446744073709551615}`))
	f.Add([]byte(`{"type":42}`))
	f.Add([]byte(`{`))
	f.Add([]byte(``))
	f.Add([]byte(`null`))
	f.Add([]byte(`[1,2,3]`))
	// Binary payloads: type code byte + tagged fields.
	f.Add([]byte("\x03"))                 // bare publish
	f.Add([]byte("\x01\x09\x04news"))     // subscribe, one topic
	f.Add([]byte("\x03\x0f\x03abc"))      // publish with raw body
	f.Add([]byte("\x07\x11\x01"))         // response, OK
	f.Add([]byte("\x09\x27\x04json"))     // hello offering json
	f.Add([]byte("\xff\x2d\x05weird"))    // unknown code, fType field
	f.Add([]byte("\x03\x0f\xff\xff\xff")) // truncated length-delimited field
	// Coalesced notify: page "p", subscription 7, then 8, -9 and 300 in
	// the packed field 26 (zigzag varints 16, 17, 0xd8 0x04).
	f.Add([]byte("\x06\x1f\x01p$\x0e5\x04\x10\x11\xd8\x04"))
	f.Add([]byte(`{"type":"notify","notification":{"pageId":"p","subscriptionId":7},"moreSubIds":[8,-9,300]}`))

	codecs := []Codec{JSONCodec(), BinaryCodec()}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, c := range codecs {
			var m Message
			if err := c.DecodeFrame(data, &m); err != nil {
				continue
			}
			// Every response echoes fields of the request; a decoded
			// message must re-encode with every codec.
			for _, e := range codecs {
				frame, err := e.AppendFrame(nil, &m)
				if err != nil {
					t.Fatalf("%s-decoded message does not re-encode as %s: %v", c.Name(), e.Name(), err)
				}
				if e != c {
					checkCrossCodec(t, c, e, &m, frame)
				}
			}
		}
	})
}

// checkCrossCodec is the differential check for a message m decoded by
// from and encoded as frame by to: frame must decode to m, up to what
// the codecs represent alike, and re-encode to the same bytes.
func checkCrossCodec(t *testing.T, from, to Codec, m *Message, frame []byte) {
	t.Helper()
	if to.Name() == codecJSON && !validUTF8(m) {
		return // JSON strings cannot carry arbitrary bytes
	}
	payload, err := to.ReadFrame(bufio.NewReader(bytes.NewReader(frame)), nil, 0)
	if err != nil {
		t.Fatalf("%s→%s: re-encoded frame does not read back: %v", from.Name(), to.Name(), err)
	}
	var got Message
	if err := to.DecodeFrame(payload, &got); err != nil {
		t.Fatalf("%s→%s: re-encoded frame does not decode: %v", from.Name(), to.Name(), err)
	}
	want, gotN := codecNeutral(m), codecNeutral(&got)
	if !reflect.DeepEqual(gotN, want) {
		t.Fatalf("%s→%s: decoded %+v (notification %+v), want %+v (notification %+v)",
			from.Name(), to.Name(), gotN, gotN.Notification, want, want.Notification)
	}
	again, err := to.AppendFrame(nil, &got)
	if err != nil || !bytes.Equal(again, frame) {
		t.Fatalf("%s→%s: re-encoding is not stable (err %v):\n%q\n%q", from.Name(), to.Name(), err, frame, again)
	}
}

// codecNeutral returns m in the form both codecs agree on: empty
// bodies and lists as nil.
func codecNeutral(m *Message) Message {
	c := *m
	if len(c.Body) == 0 {
		c.Body = nil
	}
	for _, l := range []*[]string{&c.Topics, &c.Keywords, &c.Codecs, &c.Caps} {
		if len(*l) == 0 {
			*l = nil
		}
	}
	if len(c.MoreSubIDs) == 0 {
		c.MoreSubIDs = nil
	}
	if c.Notification != nil {
		n := *c.Notification
		c.Notification = &n
	}
	return c
}

// validUTF8 reports whether every string m carries is valid UTF-8.
func validUTF8(m *Message) bool {
	strs := []string{m.Type, m.ID, m.Error, m.Trace, m.Codec}
	if m.Notification != nil {
		strs = append(strs, m.Notification.PageID)
	}
	for _, l := range [][]string{strs, m.Topics, m.Keywords, m.Codecs, m.Caps} {
		for _, s := range l {
			if !utf8.ValidString(s) {
				return false
			}
		}
	}
	return true
}

// FuzzBinaryReadFrame drives the binary framing layer (length prefix,
// frame-size limit, buffer reuse) with an arbitrary byte stream. It
// must never panic, never hand back a frame larger than the limit,
// and always leave the reader aligned for a subsequent read attempt.
func FuzzBinaryReadFrame(f *testing.F) {
	f.Add([]byte("\x00\x00\x00\x01\x05"))
	f.Add([]byte("\x00\x00\x00\x00"))
	f.Add([]byte("\xff\xff\xff\xff"))
	f.Add([]byte("\x00\x00\x00\x10short"))
	f.Add([]byte("\x00\x00\x00\x02\x03\x00\x00\x00\x01\x05"))

	f.Fuzz(func(t *testing.T, data []byte) {
		const limit = 1 << 10
		br := bufio.NewReader(bytes.NewReader(data))
		var buf []byte
		c := BinaryCodec()
		for i := 0; i < 8; i++ {
			frame, err := c.ReadFrame(br, buf, limit)
			if err != nil {
				if _, ok := err.(*FrameTooLargeError); ok {
					buf = frame
					continue // oversized frames are discarded, stream stays usable
				}
				return
			}
			if len(frame) > limit {
				t.Fatalf("frame of %d bytes exceeds limit %d", len(frame), limit)
			}
			var m Message
			_ = c.DecodeFrame(frame, &m)
			buf = frame
		}
	})
}
