package dataframe

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"os"
)

// WriteCSV writes the frame as CSV with a header row. NaN cells are
// written empty.
func (f *Frame) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(f.Columns()); err != nil {
		return fmt.Errorf("dataframe: %w", err)
	}
	for r := 0; r < f.NumRows(); r++ {
		record := make([]string, len(f.cols))
		for i, c := range f.cols {
			if c.kind == Float && math.IsNaN(c.floats[r]) {
				// "NaN" rather than "": a row of empty fields would
				// render as a blank line, which CSV readers drop.
				record[i] = "NaN"
				continue
			}
			record[i] = c.Str(r)
		}
		if err := cw.Write(record); err != nil {
			return fmt.Errorf("dataframe: %w", err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("dataframe: %w", err)
	}
	return nil
}

// SaveCSV writes the frame to a file.
func (f *Frame) SaveCSV(path string) error {
	file, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("dataframe: %w", err)
	}
	defer file.Close()
	return f.WriteCSV(file)
}
