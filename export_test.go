package remicss

// ClientQueueFootprint is a test hook: the capacity channel i's send queue of
// c holds (pending, or being written) and the capacity its free list keeps.
func ClientQueueFootprint(c *Client, i int) (held, free int) { return c.out.QueueFootprint(i) }
