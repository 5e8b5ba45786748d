// Command gencorpus regenerates the checked-in fuzz seed corpora:
//
//	internal/journal/testdata/fuzz/FuzzJournalReplay
//	internal/broker/testdata/fuzz/FuzzDecodeFrame
//
// The journal seeds need real CRC-32C framing, so they are built with
// the same encoding the journal uses rather than written by hand. Run
// from the repository root:
//
//	go run ./tools/gencorpus
package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"log"
	"os"
	"path/filepath"

	"pubsubcd/internal/broker"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// frame encodes one journal record: 4-byte BE length, 4-byte BE
// CRC-32C of the payload, payload. Mirrors internal/journal.
func frame(payload []byte) []byte {
	buf := make([]byte, 8+len(payload))
	binary.BigEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(buf[4:8], crc32.Checksum(payload, castagnoli))
	copy(buf[8:], payload)
	return buf
}

// writeSeed writes one corpus entry in `go test fuzz v1` format.
func writeSeed(dir, name string, data []byte) {
	body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
	if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
		log.Fatal(err)
	}
}

func main() {
	walMagic := []byte("pscdwal1")

	jdir := filepath.Join("internal", "journal", "testdata", "fuzz", "FuzzJournalReplay")
	if err := os.MkdirAll(jdir, 0o755); err != nil {
		log.Fatal(err)
	}
	rec1 := []byte(`{"op":"sub","id":1,"topics":["news"]}`)
	rec2 := []byte(`{"op":"unsub","id":1}`)
	valid := append(append(append([]byte{}, walMagic...), frame(rec1)...), frame(rec2)...)

	writeSeed(jdir, "empty", nil)
	writeSeed(jdir, "magic_only", walMagic)
	writeSeed(jdir, "bad_magic", []byte("not-a-wal"))
	writeSeed(jdir, "valid_two_records", valid)
	writeSeed(jdir, "torn_tail_payload", valid[:len(valid)-3])
	tornCRC := append([]byte{}, valid...)
	tornCRC[len(tornCRC)-1] ^= 0xff
	writeSeed(jdir, "torn_tail_crc", tornCRC)
	mid := append([]byte{}, valid...)
	mid[len(walMagic)+10] ^= 0xff
	writeSeed(jdir, "midlog_corrupt", mid)
	writeSeed(jdir, "garbage_length_tail", append(append([]byte{}, valid...), 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0))
	writeSeed(jdir, "short_header_tail", append(append([]byte{}, valid...), 0, 0, 0, 10, 0xde, 0xad))

	bdir := filepath.Join("internal", "broker", "testdata", "fuzz", "FuzzDecodeFrame")
	if err := os.MkdirAll(bdir, 0o755); err != nil {
		log.Fatal(err)
	}
	writeSeed(bdir, "subscribe", []byte(`{"type":"subscribe","topics":["news"],"keywords":["go"],"proxy":2,"seq":9}`))
	writeSeed(bdir, "unsubscribe", []byte(`{"type":"unsubscribe","subId":3}`))
	writeSeed(bdir, "publish", []byte(`{"type":"publish","id":"page-1","version":4,"topics":["a"],"body":"aGVsbG8gd29ybGQ="}`))
	writeSeed(bdir, "publish_bad_base64", []byte(`{"type":"publish","id":"p","body":"@@@@"}`))
	writeSeed(bdir, "fetch", []byte(`{"type":"fetch","id":"page-1","seq":1}`))
	writeSeed(bdir, "ping", []byte(`{"type":"ping"}`))
	writeSeed(bdir, "unknown_type", []byte(`{"type":"gossip","seq":1}`))
	writeSeed(bdir, "wrong_field_type", []byte(`{"type":"publish","version":"not-an-int"}`))
	writeSeed(bdir, "truncated_json", []byte(`{"type":"subscribe","topics":["ne`))
	writeSeed(bdir, "deep_nesting", []byte(`{"type":{"type":{"type":{}}}}`))
	writeSeed(bdir, "notify_coalesced", []byte(`{"type":"notify","notification":{"pageId":"p","version":2,"size":11,"subscriptionId":7},"moreSubIds":[8,-9,300],"publishedAt":1500}`))

	// Binary-codec seeds: real frames (minus the length prefix the
	// reader strips) built with the codec itself, plus corrupted
	// variants, so the fuzzer starts from structurally valid input on
	// both sides of the codec seam.
	binFrame := func(m *broker.Message) []byte {
		frame, err := broker.BinaryCodec().AppendFrame(nil, m)
		if err != nil {
			log.Fatal(err)
		}
		return frame[4:]
	}
	binSub := binFrame(&broker.Message{Type: "subscribe", Seq: 9, Topics: []string{"news"}, Keywords: []string{"go"}, Proxy: 2})
	writeSeed(bdir, "bin_subscribe", binSub)
	writeSeed(bdir, "bin_publish", binFrame(&broker.Message{Type: "publish", Seq: 3, ID: "page-1", Version: 4, Topics: []string{"a"}, BodyRaw: []byte("hello world")}))
	writeSeed(bdir, "bin_notify", binFrame(&broker.Message{Type: "notify", Notification: &broker.Notification{PageID: "p", Version: 2, Size: 11, SubscriptionID: 7}}))
	writeSeed(bdir, "bin_notify_coalesced", binFrame(&broker.Message{Type: "notify", PublishedAt: 1500, Notification: &broker.Notification{PageID: "p", Version: 2, Size: 11, SubscriptionID: 7}, MoreSubIDs: []int64{8, -9, 300}}))
	writeSeed(bdir, "bin_hello", binFrame(&broker.Message{Type: "hello", Seq: 1, Codecs: []string{"binary", "json"}, MaxFrame: 1 << 20}))
	writeSeed(bdir, "bin_response_error", binFrame(&broker.Message{Type: "response", Seq: 3, Error: "boom"}))
	writeSeed(bdir, "bin_truncated", binSub[:len(binSub)/2])
	binBadTag := append(append([]byte{}, binSub...), 0xff, 0xff, 0xff)
	writeSeed(bdir, "bin_trailing_garbage", binBadTag)
	writeSeed(bdir, "bin_type_only", binSub[:1])
	writeSeed(bdir, "bin_empty", nil)

	fmt.Println("corpora regenerated")
}
