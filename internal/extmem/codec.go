package extmem

import (
	"encoding/binary"
	"unsafe"
)

// The wire format is each element's four fields in order, little-endian:
// exactly Element's in-memory image on a little-endian host, where the codec
// is one copy. These fail to compile if Element ever gains padding or a
// field; TestCodecWireFormat pins the field offsets.
var (
	_ [ElementBytes - unsafe.Sizeof(Element{})]byte
	_ [unsafe.Sizeof(Element{}) - ElementBytes]byte
)

// hostLE reports whether the host stores a uint64 little-endian, i.e.
// whether an element's memory image is its wire image. A variable, not a
// constant, so that the tests can run the portable arm on any host.
var hostLE = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// elementBytes views es's memory as bytes. Only ever this way round: a byte
// slice is never viewed as elements, so alignment never matters.
func elementBytes(es []Element) []byte {
	if len(es) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&es[0])), len(es)*ElementBytes)
}

// EncodeElements serializes elements little-endian into dst, which must have
// room for len(src)*ElementBytes bytes. It is the single wire format shared
// by the file store's slots, the network store's block payloads and the
// sealed image's plaintext.
func EncodeElements(dst []byte, src []Element) {
	if hostLE {
		copy(dst[:len(src)*ElementBytes], elementBytes(src))
		return
	}
	encodePortable(dst, src)
}

// DecodeElements deserializes len(dst) elements from src into dst.
func DecodeElements(dst []Element, src []byte) {
	if hostLE {
		copy(elementBytes(dst), src[:len(dst)*ElementBytes])
		return
	}
	decodePortable(dst, src)
}

// encodePortable is EncodeElements field by field, whatever the host's
// byte order: the arm big-endian hosts run, and the tests' reference.
func encodePortable(dst []byte, src []Element) {
	for i, e := range src {
		off := i * ElementBytes
		binary.LittleEndian.PutUint64(dst[off:], e.Key)
		binary.LittleEndian.PutUint64(dst[off+8:], e.Val)
		binary.LittleEndian.PutUint64(dst[off+16:], e.Pos)
		binary.LittleEndian.PutUint64(dst[off+24:], e.Flags)
	}
}

// decodePortable is DecodeElements field by field.
func decodePortable(dst []Element, src []byte) {
	for i := range dst {
		off := i * ElementBytes
		dst[i] = Element{
			Key:   binary.LittleEndian.Uint64(src[off:]),
			Val:   binary.LittleEndian.Uint64(src[off+8:]),
			Pos:   binary.LittleEndian.Uint64(src[off+16:]),
			Flags: binary.LittleEndian.Uint64(src[off+24:]),
		}
	}
}

// wireOf returns the wire image of es for reading: es's own memory on a
// little-endian host, else es encoded into scratch.
func wireOf(es []Element, scratch []byte) []byte {
	if hostLE {
		return elementBytes(es)
	}
	encodePortable(scratch, es)
	return scratch[:len(es)*ElementBytes]
}

// wireInto returns where to write the wire image that es is to hold: es's
// own memory on a little-endian host, else scratch. settleWire then makes es
// hold it. With wireOf, this lets CryptStore seal from and open into
// elements in place on one code path.
func wireInto(es []Element, scratch []byte) []byte {
	if hostLE {
		return elementBytes(es)
	}
	return scratch[:len(es)*ElementBytes]
}

// settleWire decodes buf, a wireInto of es, into es: nothing to do on a
// little-endian host, where buf is es's memory.
func settleWire(es []Element, buf []byte) {
	if !hostLE {
		decodePortable(es, buf)
	}
}
