package core

import (
	"encoding/binary"
	"errors"

	"hydranet/internal/ipv4"
	"hydranet/internal/tcp"
)

// AckChannelPort is the well-known UDP port of the kernel-to-kernel
// acknowledgment channel between replicas (paper Section 4.3).
const AckChannelPort = 5402

// ChainMsg is one acknowledgment-channel message: the flow-control fields a
// backup strips from a would-be TCP packet, reinterpreted as the sender's
// cursor positions.
//
// SndNxt is the sequence number through which the sender has (logically)
// sent: the predecessor may send any byte k < SndNxt. RcvNxt is the
// sender's ACKNOWLEDGEMENT NUMBER: it has deposited every byte k < RcvNxt,
// so the predecessor may deposit up to there. FIN and SYN occupy sequence
// space, so the same two numbers gate the handshake and teardown too.
type ChainMsg struct {
	Service ServiceID
	Client  tcp.Endpoint
	SndNxt  tcp.Seq
	RcvNxt  tcp.Seq
}

const (
	chainMsgMagic   = 0xFA
	chainMsgVersion = 1
	chainMsgLen     = 22
)

// ErrBadChainMsg reports an undecodable acknowledgment-channel datagram.
var ErrBadChainMsg = errors.New("core: malformed acknowledgment-channel message")

// Marshal encodes the message for the UDP acknowledgment channel. It
// allocates the result; the send path uses MarshalInto.
func (m *ChainMsg) Marshal() []byte {
	b := make([]byte, chainMsgLen)
	m.MarshalInto(b)
	return b
}

// MarshalInto encodes the message into b, which must be chainMsgLen bytes.
func (m *ChainMsg) MarshalInto(b []byte) {
	_ = b[chainMsgLen-1]
	b[0] = chainMsgMagic
	b[1] = chainMsgVersion
	binary.BigEndian.PutUint32(b[2:6], uint32(m.Service.Addr))
	binary.BigEndian.PutUint16(b[6:8], m.Service.Port)
	binary.BigEndian.PutUint32(b[8:12], uint32(m.Client.Addr))
	binary.BigEndian.PutUint16(b[12:14], m.Client.Port)
	binary.BigEndian.PutUint32(b[14:18], uint32(m.SndNxt))
	binary.BigEndian.PutUint32(b[18:22], uint32(m.RcvNxt))
}

// UnmarshalChainMsg decodes an acknowledgment-channel datagram. It allocates
// the message; the receive path decodes into a manager-owned one with
// (*ChainMsg).Unmarshal.
func UnmarshalChainMsg(b []byte) (*ChainMsg, error) {
	m := new(ChainMsg)
	if err := m.Unmarshal(b); err != nil {
		return nil, err
	}
	return m, nil
}

// Unmarshal decodes b into m, overwriting every field; on error m is left
// untouched.
func (m *ChainMsg) Unmarshal(b []byte) error {
	if len(b) != chainMsgLen || b[0] != chainMsgMagic || b[1] != chainMsgVersion {
		return ErrBadChainMsg
	}
	*m = ChainMsg{
		Service: ServiceID{Addr: ipv4.Addr(binary.BigEndian.Uint32(b[2:6])), Port: binary.BigEndian.Uint16(b[6:8])},
		Client:  tcp.Endpoint{Addr: ipv4.Addr(binary.BigEndian.Uint32(b[8:12])), Port: binary.BigEndian.Uint16(b[12:14])},
		SndNxt:  tcp.Seq(binary.BigEndian.Uint32(b[14:18])),
		RcvNxt:  tcp.Seq(binary.BigEndian.Uint32(b[18:22])),
	}
	return nil
}
