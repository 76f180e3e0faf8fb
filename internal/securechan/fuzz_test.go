package securechan

import (
	"bytes"
	"testing"
)

// FuzzSealOpen is the differential fuzz harness over the record layer. For
// every fuzzed payload it checks, on a pooled and an unpooled channel pair in
// lockstep:
//
//  1. the pooled fast path and the unpooled reference path produce
//     byte-identical records (the optimisation cannot change the wire format),
//  2. flipping any single bit of the record — sequence header (which is both
//     the AAD and the nonce source) or GCM ciphertext/tag — fails
//     authentication with an error, never a panic, and never commits receiver
//     state,
//  3. after the rejected forgery the genuine record still opens to the exact
//     payload, and a follow-up record round-trips, on both paths.
func FuzzSealOpen(f *testing.F) {
	f.Add([]byte("status forwarder-1 pos=12.5,88.0"), uint16(0), uint8(0))
	f.Add([]byte{}, uint16(3), uint8(7))     // empty payload, header flip
	f.Add([]byte{0xff}, uint16(8), uint8(0)) // first ciphertext byte
	f.Add(bytes.Repeat([]byte{0xa5}, 300), uint16(200), uint8(4))
	f.Add([]byte("x"), uint16(65535), uint8(255)) // flip position wraps

	f.Fuzz(func(t *testing.T, payload []byte, flipIdx uint16, flipBit uint8) {
		// The unpooled twin must share the pooled pair's session keys. A
		// second handshake from the same seed would reproduce them too
		// (TestHandshakeReproducible), but forking the established channels
		// is what puts Fork itself under the fuzzer.
		pooled := handshakePair(t, Options{})
		upInit, err := pooled.init.Fork()
		if err != nil {
			t.Fatalf("fork initiator: %v", err)
		}
		upResp, err := pooled.resp.Fork()
		if err != nil {
			t.Fatalf("fork responder: %v", err)
		}
		upInit.unpooled = true
		upResp.unpooled = true
		unpooled := pair{init: upInit, resp: upResp}

		seal := func() []byte {
			recP, err := pooled.init.Seal(payload)
			if err != nil {
				t.Fatalf("pooled Seal: %v", err)
			}
			recU, err := unpooled.init.Seal(payload)
			if err != nil {
				t.Fatalf("unpooled Seal: %v", err)
			}
			if !bytes.Equal(recP, recU) {
				t.Fatalf("pooled and unpooled records differ:\n  pooled   %x\n  unpooled %x", recP, recU)
			}
			// recP aliases the pooled record buffer; copy to retain.
			return append([]byte(nil), recP...)
		}
		open := func(rec []byte) {
			ptP, err := pooled.resp.Open(rec)
			if err != nil {
				t.Fatalf("pooled Open: %v", err)
			}
			ptU, err := unpooled.resp.Open(rec)
			if err != nil {
				t.Fatalf("unpooled Open: %v", err)
			}
			if !bytes.Equal(ptP, payload) || !bytes.Equal(ptU, payload) {
				t.Fatalf("round-trip mismatch:\n  payload  %x\n  pooled   %x\n  unpooled %x", payload, ptP, ptU)
			}
		}

		rec := seal()

		// Forge: flip one bit anywhere in the record. The 8-byte header is
		// the AAD and the nonce source, the rest is GCM ciphertext + tag, so
		// every position must break authentication.
		mut := append([]byte(nil), rec...)
		idx := int(flipIdx) % len(mut)
		mut[idx] ^= 1 << (flipBit % 8)
		if pt, err := pooled.resp.Open(mut); err == nil {
			t.Fatalf("pooled Open accepted a record with bit %d of byte %d flipped: %x", flipBit%8, idx, pt)
		}
		if pt, err := unpooled.resp.Open(mut); err == nil {
			t.Fatalf("unpooled Open accepted a record with bit %d of byte %d flipped: %x", flipBit%8, idx, pt)
		}

		// The rejected forgery must not have perturbed receiver state: the
		// genuine record still opens, and the channel keeps working for the
		// next record.
		open(rec)
		open(seal())
	})
}
