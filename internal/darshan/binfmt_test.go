package darshan_test

import (
	"bytes"
	"reflect"
	"testing"

	"ion/internal/darshan"
	"ion/internal/testutil"
	"ion/internal/workloads"
)

// TestReadBinaryFamilies decodes every bundled workload's binary
// container: the header and every DXT event (OST lists included) come
// back equal to the generated log's, and writing the decoded log again
// reproduces the container byte for byte, so no counter, name or mount
// is lost either.
func TestReadBinaryFamilies(t *testing.T) {
	for _, w := range append(workloads.All(), workloads.Extras()...) {
		t.Run(w.Name, func(t *testing.T) {
			log, err := testutil.Log(w.Name)
			if err != nil {
				t.Fatal(err)
			}
			var bin bytes.Buffer
			if err := log.WriteBinary(&bin); err != nil {
				t.Fatal(err)
			}
			back, err := darshan.ReadBinary(bytes.NewReader(bin.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(back.Header, log.Header) {
				t.Errorf("header = %+v, want %+v", back.Header, log.Header)
			}
			if !reflect.DeepEqual(back.DXT, log.DXT) {
				t.Error("decoded DXT traces differ from the generated log's")
			}
			var again bytes.Buffer
			if err := back.WriteBinary(&again); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again.Bytes(), bin.Bytes()) {
				t.Error("re-encoding the decoded log changed the container")
			}
		})
	}
}
