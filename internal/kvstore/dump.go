package kvstore

import "fmt"

// AppendDumpLine appends one line of the version dump: a retained version of
// the cell (row, column) of table. It is the one place the dump format is
// written; Store.Dump and the cluster client's Dump both go through it, so
// two dumps are comparable byte for byte. Row and column are quoted: the
// line is unambiguous whatever separator a key contains.
func AppendDumpLine(dst []byte, table, row, column string, v Version) []byte {
	return fmt.Appendf(dst, "%s %q %q @%d = %x\n", table, row, column, v.Timestamp, v.Value)
}

// Dump renders every retained version of every cell of every table — values,
// version histories and logical timestamps — in table, row, column order,
// newest version first. It is the repository's bit-identity contract: two
// stores (or a store and a cluster, see cluster.Client.Dump) hold the same
// data exactly when their dumps are equal. Each table is one ScanVersions,
// so its lines are a snapshot of it; the dump is not one across tables.
func (s *Store) Dump() []byte {
	var out []byte
	for _, name := range s.TableNames() {
		t, err := s.Table(name)
		if err != nil {
			continue // dropped since TableNames
		}
		for _, c := range t.ScanVersions(ScanOptions{}) {
			out = AppendDumpLine(out, name, c.Row, c.Column, c.Version)
		}
	}
	return out
}
