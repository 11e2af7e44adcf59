// Package devcall seeds violations of the device-io rule: direct
// storage.Device Read/ReadInto/Write calls from a package outside the
// sanctioned block-I/O layers.
package devcall

import (
	"lsmssd/internal/block"
	"lsmssd/internal/storage"
)

func throughInterface(dev storage.Device, id storage.BlockID, b *block.Block) (*block.Block, error) {
	if err := dev.Write(id, b); err != nil { // want device-io
		return nil, err
	}
	return dev.Read(id) // want device-io
}

func intoCallerBlock(dev storage.Device, id storage.BlockID, dst *block.Block) error {
	return dev.ReadInto(id, dst) // want device-io
}

func throughConcrete(d *storage.MemDevice, id storage.BlockID) (*block.Block, error) {
	return d.Read(id) // want device-io
}

func intoCallerBlockConcrete(d *storage.FileDevice, id storage.BlockID, dst *block.Block) error {
	return d.ReadInto(id, dst) // want device-io
}

func peekIsDiagnostic(dev storage.Device, id storage.BlockID, dst *block.Block) error {
	return dev.Peek(id, dst) // allowed: Peek does not count traffic
}
