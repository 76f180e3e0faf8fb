// Package secureboot simulates the measured/verified boot chain of a worksite
// machine's control units.
//
// The repro band notes that a hardware secure-boot layer is not directly
// representable; per the substitution rule this package reproduces the
// *certification-relevant* behaviour entirely in software: signed image
// manifests with anti-rollback version counters, a hash-chained measurement
// register (PCR-style), a boot-time verification pass that halts on the first
// tampered stage, and remote attestation quotes signed with the machine's
// worksite-PKI identity. The evidence this produces (boot reports,
// attestation results) feeds the assurance case as "system integrity"
// solutions per IEC 62443 SR 3.x.
package secureboot

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/pki"
)

// Boot errors, matchable with errors.Is.
var (
	ErrManifestSig  = errors.New("manifest signature invalid")
	ErrDigest       = errors.New("image digest mismatch")
	ErrRollback     = errors.New("image version rollback")
	ErrWrongImage   = errors.New("manifest names a different image")
	ErrQuoteInvalid = errors.New("attestation quote invalid")
)

// Image is a firmware/software stage payload.
type Image struct {
	Name    string `json:"name"`
	Version uint64 `json:"version"`
	Content []byte `json:"content"`
}

// Digest returns the SHA-256 digest of the image identity and content.
//
//worksim:hotpath
func (im Image) Digest() [32]byte {
	h := sha256.New()
	h.Write([]byte(im.Name))
	h.Write([]byte{0})
	var v [8]byte
	binary.BigEndian.PutUint64(v[:], im.Version)
	h.Write(v[:])
	h.Write(im.Content)
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// Manifest is the vendor-signed description of an approved image.
type Manifest struct {
	ImageName string   `json:"imageName"`
	Version   uint64   `json:"version"`
	Digest    [32]byte `json:"digest"`
	Signature []byte   `json:"signature"`
}

func (m Manifest) tbs() []byte {
	buf := make([]byte, 0, 64)
	buf = append(buf, []byte(m.ImageName)...)
	buf = append(buf, 0)
	var v [8]byte
	binary.BigEndian.PutUint64(v[:], m.Version)
	buf = append(buf, v[:]...)
	buf = append(buf, m.Digest[:]...)
	return buf
}

// SignManifest produces the vendor manifest for an image.
func SignManifest(vendor pki.Identity, im Image) Manifest {
	m := Manifest{ImageName: im.Name, Version: im.Version, Digest: im.Digest()}
	m.Signature = vendor.Sign(m.tbs())
	return m
}

// Stage couples the image present on the device with the manifest it claims
// to satisfy.
type Stage struct {
	Image    Image
	Manifest Manifest
}

// Chain is an ordered boot chain (e.g. bootloader → RTOS → control app).
type Chain struct {
	Stages []Stage
}

// Measurement records one verified (or failed) stage in the boot log.
type Measurement struct {
	Stage   string   `json:"stage"`
	Version uint64   `json:"version"`
	Digest  [32]byte `json:"digest"`
	OK      bool     `json:"ok"`
	Err     string   `json:"err,omitempty"`
}

// Report is the outcome of a boot attempt.
type Report struct {
	OK  bool          `json:"ok"`
	PCR [32]byte      `json:"pcr"`
	Log []Measurement `json:"log"`
}

// Device models a control unit with verified boot. MinVersions is the
// anti-rollback store (monotonic per image name).
type Device struct {
	vendorCert  pki.Certificate
	MinVersions map[string]uint64
}

// NewDevice creates a device trusting the given vendor signing certificate.
func NewDevice(vendorCert pki.Certificate) *Device {
	return &Device{vendorCert: vendorCert, MinVersions: make(map[string]uint64)}
}

// Boot verifies the chain stage by stage, extending the measurement register.
// On the first failing stage the boot halts: the report carries the partial
// log and OK=false, and the error describes the failure.
func (d *Device) Boot(chain Chain) (Report, error) {
	rep := Report{OK: true}
	for _, st := range chain.Stages {
		m := Measurement{Stage: st.Image.Name, Version: st.Image.Version}
		if err := d.verifyStage(st); err != nil {
			m.OK = false
			m.Err = err.Error()
			rep.Log = append(rep.Log, m)
			rep.OK = false
			return rep, fmt.Errorf("boot stage %q: %w", st.Image.Name, err)
		}
		dg := st.Image.Digest()
		m.Digest = dg
		m.OK = true
		rep.Log = append(rep.Log, m)
		rep.PCR = extend(rep.PCR, dg)
		// Advance the anti-rollback floor.
		if st.Image.Version > d.MinVersions[st.Image.Name] {
			d.MinVersions[st.Image.Name] = st.Image.Version
		}
	}
	return rep, nil
}

//worksim:hotpath
func (d *Device) verifyStage(st Stage) error {
	if st.Manifest.ImageName != st.Image.Name {
		return fmt.Errorf("%w: manifest %q vs image %q", ErrWrongImage, st.Manifest.ImageName, st.Image.Name)
	}
	if !pki.VerifySignature(d.vendorCert, st.Manifest.tbs(), st.Manifest.Signature) {
		return ErrManifestSig
	}
	if st.Image.Version < d.MinVersions[st.Image.Name] {
		return fmt.Errorf("%w: version %d below floor %d", ErrRollback, st.Image.Version, d.MinVersions[st.Image.Name])
	}
	if st.Manifest.Version != st.Image.Version {
		return fmt.Errorf("%w: manifest version %d vs image %d", ErrWrongImage, st.Manifest.Version, st.Image.Version)
	}
	dg := st.Image.Digest()
	if !bytes.Equal(dg[:], st.Manifest.Digest[:]) {
		return ErrDigest
	}
	return nil
}

// extend computes the PCR-style measurement extension.
//
//worksim:hotpath
func extend(pcr, digest [32]byte) [32]byte {
	h := sha256.New()
	h.Write(pcr[:])
	h.Write(digest[:])
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// GoldenPCR computes the expected measurement register for a pristine chain,
// the reference value an attestation verifier holds.
func GoldenPCR(chain Chain) [32]byte {
	var pcr [32]byte
	for _, st := range chain.Stages {
		pcr = extend(pcr, st.Image.Digest())
	}
	return pcr
}

// Quote is a signed attestation of the device's measurement register.
type Quote struct {
	PCR       [32]byte `json:"pcr"`
	Nonce     []byte   `json:"nonce"`
	Signature []byte   `json:"signature"`
}

//worksim:hotpath
func quoteTBS(pcr [32]byte, nonce []byte) []byte {
	buf := make([]byte, 0, 64)
	buf = append(buf, pcr[:]...)
	buf = append(buf, nonce...)
	return buf
}

// Attest produces a quote over the report's PCR, bound to the verifier's
// freshness nonce, signed with the machine identity.
//
//worksim:hotpath
func Attest(machine pki.Identity, rep Report, nonce []byte) Quote {
	return Quote{
		PCR:       rep.PCR,
		Nonce:     append([]byte(nil), nonce...), // the quote owns its copy: the caller may reuse nonce
		Signature: machine.Sign(quoteTBS(rep.PCR, nonce)),
	}
}

// VerifyQuote checks a quote against the machine certificate, the expected
// golden PCR, and the challenge nonce.
//
//worksim:hotpath
func VerifyQuote(machineCert pki.Certificate, q Quote, golden [32]byte, nonce []byte) error {
	if !bytes.Equal(q.Nonce, nonce) {
		return fmt.Errorf("%w: nonce mismatch", ErrQuoteInvalid)
	}
	if !pki.VerifySignature(machineCert, quoteTBS(q.PCR, q.Nonce), q.Signature) {
		return fmt.Errorf("%w: signature", ErrQuoteInvalid)
	}
	if !bytes.Equal(q.PCR[:], golden[:]) {
		return fmt.Errorf("%w: PCR mismatch (tampered chain)", ErrQuoteInvalid)
	}
	return nil
}
