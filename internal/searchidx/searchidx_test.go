package searchidx

import (
	"reflect"
	"testing"
)

func TestTokenize(t *testing.T) {
	got := Tokenize("Hello, World! go-lang 3.14 ÄÖÜ")
	want := []string{"hello", "world", "go", "lang", "3", "14", "äöü"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Tokenize = %v, want %v", got, want)
	}
	if len(Tokenize("  ,,, !!")) != 0 {
		t.Fatal("punctuation-only input produced terms")
	}
}

func buildIndex(t *testing.T) *Index {
	t.Helper()
	ix := NewIndex()
	docs := []Document{
		{1, "swimming lessons for beginners"},
		{2, "advanced swimming technique"},
		{3, "linux kernel internals"},
		{4, "swimming pool maintenance linux"},
	}
	for _, d := range docs {
		if err := ix.Add(d); err != nil {
			t.Fatal(err)
		}
	}
	return ix
}

func TestAddAndRetrieve(t *testing.T) {
	ix := buildIndex(t)
	if ix.Len() != 4 {
		t.Fatalf("Len = %d", ix.Len())
	}
	if ix.Terms() == 0 {
		t.Fatal("no terms indexed")
	}
	if ids := ix.Retrieve("swimming"); len(ids) != 3 {
		t.Fatalf("swimming matched %d docs, want 3", len(ids))
	}
	// Conjunctive retrieval.
	if ids := ix.Retrieve("swimming linux"); !reflect.DeepEqual(ids, []int{4}) {
		t.Fatalf("conjunctive query = %v, want doc 4", ids)
	}
	// Unknown term.
	if ids := ix.Retrieve("quantum"); ids != nil {
		t.Fatalf("unknown term matched %v", ids)
	}
	// Empty query.
	if ids := ix.Retrieve("  "); ids != nil {
		t.Fatal("empty query matched documents")
	}
}

func TestAddValidation(t *testing.T) {
	ix := NewIndex()
	if err := ix.Add(Document{1, "hello"}); err != nil {
		t.Fatal(err)
	}
	if err := ix.Add(Document{1, "again"}); err == nil {
		t.Error("duplicate id accepted")
	}
	if err := ix.Add(Document{2, "!!!"}); err == nil {
		t.Error("termless document accepted")
	}
}

func TestDelete(t *testing.T) {
	ix := buildIndex(t)
	if !ix.Delete(2) {
		t.Fatal("delete returned false")
	}
	if ix.Delete(2) {
		t.Fatal("double delete returned true")
	}
	ids := ix.Retrieve("swimming")
	if len(ids) != 2 {
		t.Fatalf("after delete, swimming matched %d", len(ids))
	}
	for _, id := range ids {
		if id == 2 {
			t.Fatal("deleted doc still retrieved")
		}
	}
}

func TestLargeIndexIntersection(t *testing.T) {
	ix := NewIndex()
	for i := 0; i < 500; i++ {
		text := "common"
		if i%7 == 0 {
			text += " rare"
		}
		if err := ix.Add(Document{i, text}); err != nil {
			t.Fatal(err)
		}
	}
	res := ix.Retrieve("common rare")
	want := 0
	for i := 0; i < 500; i++ {
		if i%7 == 0 {
			want++
		}
	}
	if len(res) != want {
		t.Fatalf("intersection size %d, want %d", len(res), want)
	}
}

// Tokenize lower-cases and splits text into alphanumeric terms.
func Tokenize(text string) []string {
	return appendTokens(nil, text)
}
