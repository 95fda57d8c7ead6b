package obs

import "net/http"

// Handler exposes the server's router to the external test package, so
// its tests can scrape endpoints in-process without binding a socket.
func (s *Server) Handler() http.Handler { return s.handler() }
