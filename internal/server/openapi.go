package server

import (
	"fmt"
	"net/http"
	"reflect"
	"sort"
	"strings"
	"sync"
)

// The OpenAPI document is generated by reflection over the route
// table's wire types, so it cannot drift from what the mux actually
// serves: a new endpoint (or a renamed JSON field) changes both or
// neither. The document is static per process — routes and types are
// compile-time constants — so it is built once and cached.

var (
	openAPIOnce sync.Once
	openAPIDoc  map[string]any
)

func (s *Server) hOpenAPI(w http.ResponseWriter, r *http.Request) {
	openAPIOnce.Do(func() { openAPIDoc = buildOpenAPI(routes()) })
	writeJSON(w, http.StatusOK, openAPIDoc)
}

// buildOpenAPI assembles an OpenAPI 3.0 document from the route table.
func buildOpenAPI(rts []routeSpec) map[string]any {
	g := &schemaGen{components: map[string]any{}}
	paths := map[string]any{}
	for _, rt := range rts {
		item, _ := paths[rt.Path].(map[string]any)
		if item == nil {
			item = map[string]any{}
			paths[rt.Path] = item
		}
		item[strings.ToLower(rt.Method)] = g.operation(rt)
	}
	// The envelope itself is part of the contract.
	g.schemaFor(reflect.TypeOf(ErrorResponse{}))
	return map[string]any{
		"openapi": "3.0.3",
		"info": map[string]any{
			"title":       "emserve debug API",
			"version":     "v1",
			"description": "Interactive rule-based entity-matching sessions: incremental edits, threshold sweeps, record batches, durability and WAL-shipped read replicas.",
		},
		"paths":      paths,
		"components": map[string]any{"schemas": g.components},
	}
}

// operation builds one path-item operation from a route spec.
func (g *schemaGen) operation(rt routeSpec) map[string]any {
	op := map[string]any{
		"summary":     rt.Summary,
		"operationId": opID(rt),
	}
	var params []any
	if strings.Contains(rt.Path, "{name}") {
		params = append(params, map[string]any{
			"name": "name", "in": "path", "required": true,
			"schema": map[string]any{"type": "string"},
		})
	}
	for _, q := range rt.Query {
		params = append(params, map[string]any{
			"name": q.Name, "in": "query", "description": q.Doc,
			"schema": map[string]any{"type": q.Type},
		})
	}
	if params != nil {
		op["parameters"] = params
	}
	if rt.Request != nil {
		op["requestBody"] = map[string]any{
			"required": true,
			"content": map[string]any{"application/json": map[string]any{
				"schema": g.schemaFor(reflect.TypeOf(rt.Request)),
			}},
		}
	}
	responses := map[string]any{}
	switch {
	case rt.Binary:
		responses["200"] = map[string]any{
			"description": "binary stream",
			"content": map[string]any{"application/octet-stream": map[string]any{
				"schema": map[string]any{"type": "string", "format": "binary"},
			}},
		}
	case rt.Response != nil:
		ok := "200"
		if rt.Method == "POST" && rt.Path == "/v1/sessions" {
			ok = "201"
		}
		responses[ok] = map[string]any{
			"description": "success",
			"content": map[string]any{"application/json": map[string]any{
				"schema": g.schemaFor(reflect.TypeOf(rt.Response)),
			}},
		}
	default:
		responses["204"] = map[string]any{"description": "no content"}
	}
	// Every endpoint can answer the drain gate's 503; route-specific
	// codes ride in x-error-codes so clients can enumerate them.
	codes := append(append([]string{}, rt.ErrCodes...), CodeUnavailable)
	sort.Strings(codes)
	responses["default"] = map[string]any{
		"description":   "error envelope",
		"x-error-codes": codes,
		"content": map[string]any{"application/json": map[string]any{
			"schema": map[string]any{"$ref": "#/components/schemas/ErrorResponse"},
		}},
	}
	op["responses"] = responses
	return op
}

// opID derives a stable operation id like getSessionsMatches.
func opID(rt routeSpec) string {
	parts := []string{strings.ToLower(rt.Method)}
	for _, seg := range strings.Split(rt.Path, "/") {
		if seg == "" || seg == "v1" || strings.HasPrefix(seg, "{") {
			continue
		}
		seg = strings.ReplaceAll(seg, ".", "_")
		parts = append(parts, strings.ToUpper(seg[:1])+seg[1:])
	}
	return strings.Join(parts, "")
}

// schemaGen reflects Go wire types into OpenAPI schemas, interning
// named struct types in the components map and returning $refs.
type schemaGen struct {
	components map[string]any
}

func (g *schemaGen) schemaFor(t reflect.Type) map[string]any {
	for t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	switch t.Kind() {
	case reflect.String:
		return map[string]any{"type": "string"}
	case reflect.Bool:
		return map[string]any{"type": "boolean"}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return map[string]any{"type": "integer"}
	case reflect.Float32, reflect.Float64:
		return map[string]any{"type": "number"}
	case reflect.Slice, reflect.Array:
		if t.Elem().Kind() == reflect.Uint8 {
			// []byte rides base64 in encoding/json.
			return map[string]any{"type": "string", "format": "byte"}
		}
		return map[string]any{"type": "array", "items": g.schemaFor(t.Elem())}
	case reflect.Map:
		return map[string]any{"type": "object", "additionalProperties": g.schemaFor(t.Elem())}
	case reflect.Struct:
		name := t.Name()
		if name == "" {
			return g.structSchema(t)
		}
		if _, done := g.components[name]; !done {
			g.components[name] = map[string]any{} // placeholder breaks cycles
			g.components[name] = g.structSchema(t)
		}
		return map[string]any{"$ref": "#/components/schemas/" + name}
	default:
		return map[string]any{} // interface{} and friends: anything
	}
}

func (g *schemaGen) structSchema(t reflect.Type) map[string]any {
	props := map[string]any{}
	var required []string
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() {
			continue
		}
		tag := f.Tag.Get("json")
		if tag == "-" {
			continue
		}
		name, opts, _ := strings.Cut(tag, ",")
		if name == "" {
			if f.Anonymous {
				// Embedded struct: inline its fields.
				emb := g.schemaFor(f.Type)
				if ref, ok := emb["$ref"].(string); ok {
					emb, _ = g.components[strings.TrimPrefix(ref, "#/components/schemas/")].(map[string]any)
				}
				if ep, ok := emb["properties"].(map[string]any); ok {
					for k, v := range ep {
						props[k] = v
					}
				}
				continue
			}
			name = f.Name
		}
		props[name] = g.schemaFor(f.Type)
		if !strings.Contains(opts, "omitempty") {
			required = append(required, name)
		}
	}
	schema := map[string]any{"type": "object", "properties": props}
	if len(required) > 0 {
		sort.Strings(required)
		schema["required"] = required
	}
	return schema
}

// validate is a build-time sanity net used by tests: every ErrCodes
// entry must come from the stable code table.
func validateRouteCodes(rts []routeSpec) error {
	valid := map[string]bool{
		CodeInvalidRequest: true, CodeNotFound: true, CodeConflict: true,
		CodeQuotaExceeded: true, CodeNotPrimary: true, CodeNotDurable: true,
		CodeWalRotated: true, CodeCancelled: true, CodeInternal: true,
		CodeUnavailable: true, CodeStaleEpoch: true, CodeUnauthorized: true,
		CodeCursorExpired: true,
	}
	for _, rt := range rts {
		for _, c := range rt.ErrCodes {
			if !valid[c] {
				return fmt.Errorf("route %s %s declares unknown error code %q", rt.Method, rt.Path, c)
			}
		}
	}
	return nil
}
