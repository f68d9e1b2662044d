package smallstruct

import "rangesearch/internal/eio"

// AppendAllPages appends every page the structure owns — the catalog record
// and every block page, including retired and non-initial blocks that All()
// never visits — to dst and returns the extended slice. It is the
// structure's contribution to the reachability set consumed by
// eio.FindLeaks and eio.Scrub.
func (s *Struct) AppendAllPages(dst []eio.PageID) ([]eio.PageID, error) {
	chain, err := s.rs.Chain(s.catalog)
	if err != nil {
		return nil, err
	}
	dst = append(dst, chain...)
	sc := s.borrow()
	defer s.release(sc)
	cat, err := s.loadCatalog(sc)
	if err != nil {
		return nil, err
	}
	for i := 0; i < cat.nb; i++ {
		dst = append(dst, cat.block(i).page)
	}
	return dst, nil
}
