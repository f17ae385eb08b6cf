package isa

import (
	"fmt"
	"strconv"
	"strings"
)

// Assembly syntax for cpim instructions, used by the pimasm tool:
//
//	<op> b<bank>.s<subarray>.t<tile>.d<dbc>.r<row> [bs=<blocksize>] [k=<operands>] [imm=<amount>]
//
// for example:
//
//	add b2.s10.t0.d15.r0 bs=8 k=3
//	shl b2.s10.t0.d15.r0 bs=8 k=1 imm=3
//	read b0.s0.t1.d4.r7

// ParseError wraps a pimasm source failure with its 1-based line: the
// pimc front end (internal/isa/compile) returns one for every
// rejection. Test with errors.As; Unwrap exposes the underlying error
// (e.g. an *AddrRangeError).
type ParseError struct {
	Line int
	Err  error
}

func (e *ParseError) Error() string { return fmt.Sprintf("line %d: %v", e.Line, e.Err) }

func (e *ParseError) Unwrap() error { return e.Err }

// opByName maps mnemonics to opcodes.
var opByName = func() map[string]OpCode {
	m := make(map[string]OpCode, len(opNames))
	for op, name := range opNames {
		m[name] = op
	}
	return m
}()

// ParseInstruction parses the assembly form.
func ParseInstruction(s string) (Instruction, error) {
	fields := strings.Fields(strings.TrimSpace(s))
	if len(fields) < 2 {
		return Instruction{}, fmt.Errorf("isa: want \"<op> <addr> [bs=N] [k=N]\", got %q", s)
	}
	var in Instruction
	op, ok := opByName[strings.ToLower(fields[0])]
	if !ok {
		return Instruction{}, fmt.Errorf("isa: unknown mnemonic %q", fields[0])
	}
	in.Op = op
	addr, err := parseAddr(fields[1])
	if err != nil {
		return Instruction{}, err
	}
	in.Src = addr
	in.Blocksize = 8
	in.Operands = 1
	for _, f := range fields[2:] {
		key, val, found := strings.Cut(f, "=")
		if !found {
			return Instruction{}, fmt.Errorf("isa: bad argument %q", f)
		}
		n, err := strconv.Atoi(val)
		if err != nil {
			return Instruction{}, fmt.Errorf("isa: bad value in %q: %w", f, err)
		}
		switch key {
		case "bs":
			in.Blocksize = n
		case "k":
			in.Operands = n
		case "imm":
			in.Imm = n
		default:
			return Instruction{}, fmt.Errorf("isa: unknown argument %q", key)
		}
	}
	return in, nil
}

// ParseAddr parses the "b<bank>.s<sub>.t<tile>.d<dbc>.r<row>" address
// form shared by the assembly syntax and the pimc source language.
func ParseAddr(s string) (Addr, error) { return parseAddr(s) }

// FormatAddr renders the assembly address form (the inverse of
// ParseAddr for in-range addresses).
func FormatAddr(a Addr) string {
	return fmt.Sprintf("b%d.s%d.t%d.d%d.r%d", a.Bank, a.Subarray, a.Tile, a.DBC, a.Row)
}

// DBCSource names the DBC holding the address by its coordinates
// without the row — "b2.s10.t0.d15" — the telemetry source label
// memory.Memory assigns each cluster. The compiler's per-DBC shift
// predictions and the hardware profiler's measured per-DBC counters
// are joined on this string.
func DBCSource(a Addr) string {
	return fmt.Sprintf("b%d.s%d.t%d.d%d", a.Bank, a.Subarray, a.Tile, a.DBC)
}

// OpByName resolves an assembly mnemonic to its opcode.
func OpByName(name string) (OpCode, bool) {
	op, ok := opByName[strings.ToLower(name)]
	return op, ok
}

// parseAddr parses "b<bank>.s<sub>.t<tile>.d<dbc>.r<row>". It cuts the
// fields off in place and parses them into a local array, so a
// well-formed address allocates nothing.
func parseAddr(s string) (Addr, error) {
	if strings.Count(s, ".") != 4 {
		return Addr{}, fmt.Errorf("isa: address %q wants b<n>.s<n>.t<n>.d<n>.r<n>", s)
	}
	const prefixes = "bstdr"
	var f [len(prefixes)]int
	rest := s
	for i := range f {
		var p string
		p, rest, _ = strings.Cut(rest, ".")
		prefix := prefixes[i : i+1]
		if !strings.HasPrefix(p, prefix) {
			return Addr{}, fmt.Errorf("isa: address field %q wants prefix %q", p, prefix)
		}
		n, err := strconv.Atoi(p[len(prefix):])
		if err != nil {
			return Addr{}, fmt.Errorf("isa: address field %q: %w", p, err)
		}
		f[i] = n
	}
	return Addr{Bank: f[0], Subarray: f[1], Tile: f[2], DBC: f[3], Row: f[4]}, nil
}

// FormatInstruction renders the assembly form (the inverse of
// ParseInstruction for valid instructions).
func FormatInstruction(in Instruction) string {
	base := fmt.Sprintf("%v b%d.s%d.t%d.d%d.r%d",
		in.Op, in.Src.Bank, in.Src.Subarray, in.Src.Tile, in.Src.DBC, in.Src.Row)
	switch in.Op {
	case OpRead, OpWrite, OpNop:
		return base
	case OpShl, OpShr:
		return fmt.Sprintf("%s bs=%d k=%d imm=%d", base, in.Blocksize, in.Operands, in.Imm)
	}
	return fmt.Sprintf("%s bs=%d k=%d", base, in.Blocksize, in.Operands)
}
