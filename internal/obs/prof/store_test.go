package prof

import "testing"

func TestStoreNilSafe(t *testing.T) {
	var st *Store
	if err := st.Add(Window{ID: "x", Kind: "cpu"}); err != nil {
		t.Fatal(err)
	}
	if st.Len() != 0 || st.Bytes() != 0 || st.Evicted() != 0 {
		t.Fatal("nil store not empty")
	}
	if ws := st.Windows("", 0); ws != nil {
		t.Fatal("nil store returned windows")
	}
	if _, ok := st.Get("x"); ok {
		t.Fatal("nil store Get ok")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}
